import contextlib
import importlib.util
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dqw import cli
from dqw.cli import report_to_json_text, run_scenario, strip_timings, write_report
from dqw.cli import main as cli_main
from dqw.rationals import parse_scalar
from dqw.scenario import ConfigurationError, Scenario, load_scenario

from conftest import SCENARIO_DIR


class Replace:
    """A mutation result that replaces the whole scenario document."""

    def __init__(self, document):
        self.document = document


def _inline_star(change):
    """A mutation that gives the scenario perturbed-c2's inline star
    product, changed by change(inline)."""
    def mutate(d):
        inline = json.loads((SCENARIO_DIR / "perturbed-c2.json").read_text())
        change(inline["star_product"]["inline"])
        d["star_product"] = inline["star_product"]
    return mutate


def _inline_theta(theta):
    """A mutation that gives the scenario perturbed-c2's inline star
    product with the bracket matrix theta, and the closed-form embedding,
    which reads it."""
    def mutate(d):
        _inline_star(lambda s: s.update(theta=theta))(d)
        d.update(tau={"source": "closed_form"}, commands=["build-tau", "deform", "check-pos"])
    return mutate


def _under_validate(mutate):
    """The mutation, with the malformed scenario run through `dqw validate`."""
    mutate.verb = "validate"
    return mutate


def _inline_key(*path):
    """A mutation that gives the scenario perturbed-c2's star product and
    adds an unread key to the object at path in it."""
    def mutate(d):
        _inline_star(lambda s: None)(d)
        _walk(d["star_product"], path).update(bogus=1)
    return mutate


def _walk(node, path):
    for key in path:
        node = node[key]
    return node


def load(name):
    return load_scenario(str(SCENARIO_DIR / f"{name}.json"))


class TestLoading:
    def test_all_shipped_scenarios_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            if path.name.endswith("-spec.json"):
                continue
            scenario = load_scenario(str(path))
            assert scenario.name == path.stem

    def test_malformed_json_reports_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",,}')
        with pytest.raises(ConfigurationError) as exc:
            load_scenario(str(bad))
        assert "line" in str(exc.value)

    def test_missing_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ConfigurationError):
            load_scenario(str(bad))

    def test_serialization_roundtrip(self):
        for name in ("moyal-r2-delta", "zero-poisson"):
            scenario = load(name)
            again = Scenario.from_json(json.loads(json.dumps(scenario.to_json())))
            assert again == scenario
            assert again.digest() == scenario.digest()


class TestExitCodes:
    def test_delta_scenario_passes(self):
        report, code = run_scenario(load("moyal-r2-delta"))
        assert code == 0
        by_op = {}
        for r in report["commands"]:
            by_op.setdefault(r["op"], []).append(r)
        undeformed = by_op["check-pos"][0]
        assert undeformed["detail"]["expect"] == "negative"
        assert undeformed["outcome"] == "pass"
        neg = [t for t in undeformed["detail"]["tests"]
               if t["classification"] == "negative"]
        assert neg and neg[0]["coefficients"] == ["0", "-1"]
        deformed = by_op["check-pos"][1]
        assert deformed["outcome"] == "pass"
        assert all(t["classification"] != "negative"
                   for t in deformed["detail"]["tests"])

    def test_fixture_tau_scenario_exact_value(self):
        report, code = run_scenario(load("moyal-r2-delta-fixture"))
        assert code == 0
        deformed = [r for r in report["commands"] if r["op"] == "check-pos"][1]
        explicit = next(t for t in deformed["detail"]["tests"]
                        if t["label"] == "explicit_0")
        assert explicit["coefficients"] == ["0", "1/4"]
        assert explicit["classification"] == "positive"

    def test_perturbed_fails_at_validate(self):
        report, code = run_scenario(load("perturbed-c2"))
        assert code == 1
        assert report["commands"][0]["op"] == "validate"
        assert report["commands"][0]["outcome"] == "fail"
        assert len(report["commands"]) == 1  # pipeline stops

    def test_degenerate_order_zero(self):
        report, code = run_scenario(load("k0-degenerate"))
        assert code == 0

    def test_inconclusive_only_exit_three(self):
        data = load("k0-degenerate").to_json()
        data["name"] = "zero-functional"
        data["functional"] = {"atoms": []}
        report, code = run_scenario(Scenario.from_json(data))
        assert code == 3
        assert report["overall"]["outcome"] == "inconclusive"

    def test_empty_command_list(self):
        data = load("zero-poisson").to_json()
        data["commands"] = []
        report, code = run_scenario(Scenario.from_json(data))
        assert code == 0
        assert report["commands"] == []


class TestDeterminism:
    @pytest.mark.parametrize("name", ["zero-poisson", "k0-degenerate",
                                      "moyal-r2-delta-fixture"])
    def test_replay_byte_identical_modulo_timings(self, name):
        r1, c1 = run_scenario(load(name))
        r2, c2 = run_scenario(load(name))
        assert c1 == c2
        b1 = json.dumps(strip_timings(r1), sort_keys=True)
        b2 = json.dumps(strip_timings(r2), sort_keys=True)
        assert b1 == b2

    def test_seed_override_changes_tests(self):
        s = load("zero-poisson")
        r1, _ = run_scenario(s, seed_override=1)
        r2, _ = run_scenario(s, seed_override=2)
        t1 = [r for r in r1["commands"] if r["op"] == "check-pos"][0]["detail"]["tests"]
        t2 = [r for r in r2["commands"] if r["op"] == "check-pos"][0]["detail"]["tests"]
        assert t1 != t2


def emit_report(report, fmt):
    fh = io.StringIO()
    write_report(report, fmt, fh)
    return fh.getvalue()


class TestReports:
    def test_json_emission_roundtrips(self):
        report, _ = run_scenario(load("k0-degenerate"))
        text = emit_report(report, "json")
        assert json.loads(text) == report

    def test_text_contains_outcomes(self):
        report, _ = run_scenario(load("k0-degenerate"))
        text = emit_report(report, "text")
        assert "k0-degenerate" in text
        assert "overall: pass" in text

    def test_written_json_is_the_report_text(self, tmp_path, monkeypatch, capsysbinary):
        """The report streamed into --out, and onto stdout, has the bytes of
        `report_to_json_text` of the same report."""
        reports = []
        run = cli.run_scenario

        def captured(*args, **kwargs):
            result = run(*args, **kwargs)
            reports.append(result[0])
            return result

        monkeypatch.setattr(cli, "run_scenario", captured)
        scenario = str(SCENARIO_DIR / "moyal-r2-delta.json")
        out = tmp_path / "report.json"
        assert cli_main(["run", "--scenario", scenario, "--out", str(out)]) == 0
        assert out.read_bytes() == report_to_json_text(reports[0]).encode()
        assert cli_main(["run", "--scenario", scenario]) == 0
        assert capsysbinary.readouterr().out == report_to_json_text(reports[1]).encode()

    def test_unknown_format_rejected(self):
        report, _ = run_scenario(load("k0-degenerate"))
        with pytest.raises(ConfigurationError):
            emit_report(report, "yaml")

    def test_reports_state_each_fact_once(self):
        """On every shipped scenario a build stage lists only its stage, its
        stage term and its solver report, a test verdict has no sound order
        of its own, and no coefficient list reaches past the functional's
        sound order (K for the undeformed extension)."""
        stages = verdicts = 0
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            if path.name.endswith("-spec.json"):
                continue
            report, _ = run_scenario(load_scenario(str(path)))
            for c in report["commands"]:
                detail = c["detail"] or {}
                if c["op"] == "build-tau" and detail.get("report"):
                    for stage in detail["report"]["stages"]:
                        assert set(stage) == {"stage", "stage_term", "solver"}, path.name
                        stages += 1
                elif c["op"] == "check-pos" and "tests" in detail:
                    functional = detail["functional"]
                    order = functional.get("sound_order", report["scenario"]["K"])
                    for t in detail["tests"]:
                        assert "sound_order" not in t, (path.name, t["label"])
                        assert len(t["coefficients"]) <= order + 1, (path.name, t["label"])
                        verdicts += 1
        assert stages and verdicts


def _k0_without_command(index):
    data = json.loads((SCENARIO_DIR / "k0-degenerate.json").read_text())
    del data["commands"][index]
    return data


class TestCli:
    def test_run_verb(self, capsys):
        code = cli_main(["run", "--scenario",
                         str(SCENARIO_DIR / "k0-degenerate.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["overall"]["exit_code"] == 0

    def test_validate_verb_only_validates(self, capsys):
        code = cli_main(["validate", "--scenario",
                         str(SCENARIO_DIR / "moyal-r2-delta.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["op"] for r in report["commands"]] == ["validate"]

    def test_perturbed_exit_one(self, capsys):
        code = cli_main(["validate", "--scenario",
                         str(SCENARIO_DIR / "perturbed-c2.json")])
        assert code == 1

    def test_missing_file_exit_two(self, capsys):
        code = cli_main(["run", "--scenario", "/nonexistent.json"])
        assert code == 2

    @pytest.mark.parametrize("content, out", [
        pytest.param(b'{"name": "caf\xe9"}', None, id="scenario not utf-8"),
        pytest.param(b"[" * 10000 + b"]" * 10000, None, id="json nested 10000 deep"),
        pytest.param((SCENARIO_DIR / "k0-degenerate.json").read_bytes(), "missing/report.json",
                     id="out into a missing directory"),
        pytest.param(b'{"K": ' + b"9" * 5000 + b"}", None, id="integer literal of 5000 digits"),
    ])
    def test_unreadable_or_unwritable_file_exit_two(self, tmp_path, capsys, content, out):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(content)
        argv = ["run", "--scenario", str(scenario)]
        if out is not None:
            out = tmp_path / out
            argv += ["--out", str(out)]
        code = cli_main(argv)
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("configuration error:")
        assert str(out or scenario) in err

    @pytest.mark.parametrize("K, extra", [
        pytest.param(3, ["--max-order", "0"], id="linear bracket at max-order 0"),
        pytest.param(0, [], id="linear bracket scenario with K 0"),
    ])
    def test_linear_bracket_at_order_zero(self, tmp_path, capsys, K, extra):
        # the generator has no C_1 at K = 0; every step runs and passes
        data = json.loads((SCENARIO_DIR / "linear-poisson-2d.json").read_text())
        data["K"] = K
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        code = cli_main(["run", "--scenario", str(scenario), *extra])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["K"] == 0
        assert [(r["op"], r["outcome"]) for r in report["commands"]] == [
            ("validate", "pass"), ("build-tau", "pass"), ("deform", "pass"),
            ("check-pos", "pass")]

    def test_out_and_text_format(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = cli_main(["run", "--scenario",
                         str(SCENARIO_DIR / "k0-degenerate.json"),
                         "--format", "text", "--out", str(out)])
        assert code == 0
        assert "overall: pass" in out.read_text()

    @pytest.mark.parametrize("field, mutate", [
        ("'K'", lambda d: d.update(K=-1)),
        ("'K'", lambda d: d.update(K="4")),
        ("'n'", lambda d: d.update(n=0)),
        ("'N'", lambda d: d.update(N=0)),
        ("functional", lambda d: d.update(n=3)),
        ("theta", lambda d: d["star_product"].update(theta=[["0", "1"], ["1", "0"]])),
        ("'seed'", lambda d: d["tests"]["random"].pop("seed")),
        ("'coeffs'", lambda d: d["tests"]["explicit"][0].pop("coeffs")),
        ("object", lambda d: Replace([])),
        ("'tau'", lambda d: d.update(tau="solver")),
        ("'star_product'", lambda d: d.update(star_product="zero")),
        ("'functional'", lambda d: d.update(functional=[])),
        ("'tests'", lambda d: d.update(tests=[])),
        # a key that nothing reads, glue among them, is refused, not dropped
        ("'glue'", lambda d: d.update(glue={"weights": ["1"]})),
        ("'comands'", lambda d: d.update(comands=d.pop("commands"))),
        ("'tau.sorce'", lambda d: d.update(tau={"sorce": "closed_form"})),
        ("'tests.explict'", lambda d: d["tests"].update(explict=[])),
        ("'tests.random.cout'", lambda d: d["tests"]["random"].update(cout=3)),
        ("'commands[3].functinal'",
         lambda d: d["commands"][3].update(functinal=d["commands"][3].pop("functional"))),
        ("'commands[0].expect'",
         lambda d: d["commands"].__setitem__(0, {"op": "validate", "expect": "negative"})),
        ("field 'functional'", lambda d: d["commands"][3].update(functional="glued")),
        ("'commands'", lambda d: d.update(commands="validate")),
        ("'tests.random.count'", lambda d: d["tests"]["random"].update(count="x")),
        ("'tests.random.max_coeff'",
         lambda d: d["tests"]["random"].update(max_coeff=0)),
        ("'tests.random.max_q_degree'",
         lambda d: d["tests"]["random"].update(max_q_degree=-1)),
        ("'tests.random.seed'", lambda d: d["tests"]["random"].update(seed="7")),
        ("'tests.random.lambda_corrections'",
         lambda d: d["tests"]["random"].update(lambda_corrections="yes")),
        ("'expect'", lambda d: d["commands"][3].update(expect="maybe")),
        # deform without build-tau, deformed check-pos without deform
        ("commands[1]", lambda d: Replace(_k0_without_command(1))),
        ("commands[2]", lambda d: Replace(_k0_without_command(2))),
        ("commands[2]", lambda d: d.update(commands=["validate", "build-tau", "check-pos"])),
        # data fields are lists (not strings) of strings or integers (not floats or bools)
        ("'star_product.theta[0][1]'",
         lambda d: d["star_product"]["theta"][0].__setitem__(1, 0.5)),
        ("'star_product.theta[1]'",
         lambda d: d["star_product"]["theta"].__setitem__(1, "-10")),
        ("'functional.atoms[0].point[0]'",
         lambda d: d["functional"]["atoms"][0]["point"].__setitem__(0, 0.1)),
        ("'functional.atoms[0].point'",
         lambda d: d["functional"]["atoms"][0].update(point="00")),
        ("'functional.atoms[0].vector'",
         lambda d: d["functional"]["atoms"][0].update(vector="1")),
        ("'functional.atoms[0].vector[0]'",
         lambda d: d["functional"]["atoms"][0].update(vector=[True])),
        ("'tests.explicit[0].coeffs'",
         lambda d: d["tests"]["explicit"][0].update(coeffs="")),
        ("'tests.explicit[0].coeffs[0].poly'",
         lambda d: d["tests"]["explicit"][0]["coeffs"][0].update(poly="")),
        # the n and max_order of an explicit test are integers in range
        ("'tests.explicit[0].n'", lambda d: d["tests"]["explicit"][0].update(n=2.0)),
        ("'tests.explicit[0].max_order'",
         lambda d: d["tests"]["explicit"][0].update(max_order=2.5)),
        ("'tests.explicit[0].max_order'",
         lambda d: d["tests"]["explicit"][0].update(max_order=True)),
        ("'tests.explicit[0].max_order'",
         lambda d: d["tests"]["explicit"][0].update(max_order=-1)),
        ("'tests.explicit[0].entries[0][0].max_order'",
         lambda d: d["tests"]["explicit"].__setitem__(
             0, {"entries": [[{**d["tests"]["explicit"][0], "max_order": -1}]]})),
        # a zero denominator is malformed input, wherever an exact scalar is read
        ("'star_product.theta[0][1]': zero denominator",
         lambda d: d["star_product"]["theta"][0].__setitem__(1, "1/0")),
        ("'functional.atoms[0].point[0]': zero denominator",
         lambda d: d["functional"]["atoms"][0]["point"].__setitem__(0, "1/0")),
        ("'functional.atoms[0].vector[0]': zero denominator",
         lambda d: d["functional"]["atoms"][0]["vector"].__setitem__(0, "1/0")),
        ("'tests.explicit[0].coeffs[0].poly[0][1]': zero denominator",
         lambda d: d["tests"]["explicit"][0]["coeffs"][0]["poly"][0].__setitem__(1, "1/0")),
        pytest.param(
            "'star_product.inline.cochains[0].terms[0].coeff_poly.terms[0][1]': zero denominator",
            _inline_star(lambda s: s["cochains"][0]["terms"][0]["coeff_poly"]["terms"][0]
                         .__setitem__(1, "1/0")),
            id="star_product.inline: zero denominator-mutate"),
        # the inline star product's shape: derivative exponents are
        # non-negative integers, and each lambda_power >= 1 occurs once
        pytest.param(
            "'star_product.inline.cochains[0].terms[0].derivs[0][0]' must be an integer >= 0, "
            "got -1",
            _inline_star(lambda s: s["cochains"][0]["terms"][0]["derivs"][0].__setitem__(0, -1)),
            id="star_product.inline: lambda_power 1: bad derivs-mutate0"),
        pytest.param(
            "'star_product.inline.cochains[0].terms[0].derivs[0][0]' must be an integer >= 0, "
            "got 0.5",
            _inline_star(lambda s: s["cochains"][0]["terms"][0]["derivs"][0].__setitem__(0, 0.5)),
            id="star_product.inline: lambda_power 1: bad derivs-mutate1"),
        ("'star_product.inline.cochains[4].lambda_power' must be an integer >= 1",
         _inline_star(lambda s: s["cochains"].append({"lambda_power": 0,
                                                      "terms": s["cochains"][0]["terms"]}))),
        ("'star_product.inline.cochains[4].lambda_power' repeats lambda_power 2",
         _inline_star(lambda s: s["cochains"].append(s["cochains"][1]))),
        # the Hermitian flag is a boolean: the string "no" would read as true
        ("'star_product.inline.hermitian' must be a boolean",
         _inline_star(lambda s: s.update(hermitian="no"))),
        ("'star_product.inline.hermitian' must be a boolean",
         _under_validate(_inline_star(lambda s: s.update(hermitian="no")))),
        # an inline bracket matrix is antisymmetric, like a generator's
        pytest.param("'star_product.inline.theta' must be antisymmetric",
                     _inline_theta([["0", "1"], ["1", "0"]]),
                     id="star_product.inline: symmetric theta"),
        # an unread key is refused in every object of the scenario
        ("'star_product.bogus'", _inline_key()),
        ("'star_product.inline.bogus'", _inline_key("inline")),
        ("'star_product.inline.cochains[1].bogus'", _inline_key("inline", "cochains", 1)),
        ("'star_product.inline.cochains[1].terms[0].bogus'",
         _inline_key("inline", "cochains", 1, "terms", 0)),
        ("'star_product.inline.cochains[0].terms[1].coeff_poly.bogus'",
         _inline_key("inline", "cochains", 0, "terms", 1, "coeff_poly")),
        ("'star_product.bogus'", lambda d: d["star_product"].update(bogus=1)),
        ("'functional.bogus'", lambda d: d["functional"].update(bogus=1)),
        ("'functional.atoms[0].bogus'", lambda d: d["functional"]["atoms"][0].update(bogus=1)),
        ("'tests.explicit[0].bogus'", lambda d: d["tests"]["explicit"][0].update(bogus=1)),
        ("'tests.explicit[0].coeffs[0].bogus'",
         lambda d: d["tests"]["explicit"][0]["coeffs"][0].update(bogus=1)),
        # each term of a polynomial is an [exponents, coefficient] pair
        ("'tests.explicit[0].coeffs[0].poly[0]' must have 2 entries, got 3",
         lambda d: d["tests"]["explicit"][0]["coeffs"][0]["poly"][0].append("2")),
        # a lam-series term beyond its max_order is refused, not dropped
        pytest.param(
            "'tests.explicit[0].coeffs[1].lam' must be an integer between 0 and 4, got 5",
            lambda d: d["tests"]["explicit"][0]["coeffs"].append(
                {"lam": 5, "poly": [[[0, 0], "1"]]}),
            id="explicit lam above max_order"),
        pytest.param(
            "'tests.explicit[0].coeffs[1].lam' must be an integer equal to 0, got 3",
            lambda d: d["tests"]["explicit"][0].update(
                max_order=0, coeffs=[*d["tests"]["explicit"][0]["coeffs"],
                                     {"lam": 3, "poly": [[[0, 0], "1"]]}]),
            id="explicit lam above max_order 0"),
        pytest.param(
            "'tests.explicit[0].entries[0][0].coeffs[0].lam' must be an integer "
            "between 0 and 2, got 3",
            lambda d: d["tests"]["explicit"].__setitem__(0, {"entries": [[{
                **d["tests"]["explicit"][0], "max_order": 2,
                "coeffs": [{"lam": 3, "poly": [[[0, 0], "1"]]}]}]]}),
            id="entries lam above max_order"),
    ])
    def test_malformed_scenario_exit_two(self, tmp_path, capsys, field, mutate):
        data = json.loads((SCENARIO_DIR / "moyal-r2-delta.json").read_text())
        result = mutate(data)
        if isinstance(result, Replace):
            data = result.document
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = cli_main([getattr(mutate, "verb", "run"), "--scenario", str(path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error:") and field in err

    def test_max_order_override(self, capsys):
        code = cli_main(["run", "--scenario",
                         str(SCENARIO_DIR / "zero-poisson.json"),
                         "--max-order", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["K"] == 2


# The fuzzed documents are k0-degenerate with one random test added, and
# a copy whose star product is perturbed-c2's C_1 inline and whose
# explicit test is also given as a 1 x 1 matrix, so that every config
# field of a scenario occurs.
def _fuzz_bases() -> tuple:
    data = json.loads((SCENARIO_DIR / "k0-degenerate.json").read_text())
    data["tests"]["random"] = {"seed": 0, "count": 1, "max_q_degree": 1,
                               "max_coeff": 1, "lambda_corrections": True}
    inline = json.loads(json.dumps(data))
    inline["star_product"] = json.loads(
        (SCENARIO_DIR / "perturbed-c2.json").read_text())["star_product"]
    del inline["star_product"]["inline"]["cochains"][1:]
    inline["tests"]["explicit"].append({"entries": [[data["tests"]["explicit"][0]]]})
    return data, inline


def _paths(x, path=()):
    yield path
    if isinstance(x, dict):
        children = x.items()
    elif isinstance(x, list):
        children = enumerate(x)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, path + (key,))


DELETE = "<delete>"
FUZZ_VALUES = (None, True, -1, 0, 1, 3, 2.5, "x", "", [], [1], {}, {"a": 1}, DELETE)
OPS = ("validate", "build-tau", "deform", "check-pos")


def _int_at_least(low):
    return lambda v: type(v) is int and v >= low


def _exact(v):
    """A rational written as a string or an integer (not a float or a bool)."""
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        return False
    try:
        Fraction(v)
    except ValueError:
        return False
    return True


def _scalar_string(v):
    try:
        parse_scalar(v)
    except (TypeError, ValueError):
        return False
    return True


def _is(kind):
    return lambda v: isinstance(v, kind)


def _object(*keys, required=()):
    """An object with every required key and no key outside keys and
    required: a key nothing reads is refused."""
    return lambda v: isinstance(v, dict) and set(required) <= set(v) <= {*keys, *required}


def _equal(n):
    return lambda v: type(v) is int and v == n


def _list_of(length, valid):
    return lambda v: isinstance(v, list) and len(v) == length and all(map(valid, v))


_exponents = _list_of(2, _int_at_least(0))          # of a monomial in n = 2


def _monomial(v):
    return isinstance(v, list) and len(v) == 2 and _exponents(v[0]) and _scalar_string(v[1])


def _monomial_fields(path):
    """The fields of a monomial list at path: [[exponents, coefficient], ..]."""
    return {
        path: (True, _is(list)),
        path + ("*",): (False, _monomial),
        # list indices are all "*": the exponents and the coefficient
        path + ("*", "*"): (True, lambda v: _exponents(v) or _scalar_string(v)),
        path + ("*", "*", "*"): (True, _int_at_least(0)),
    }


def _lambda_poly_fields(path):
    """The fields of a lam-series {"n", "max_order", "coeffs"} at path."""
    return {
        path + ("n",): (True, _equal(2)),
        path + ("max_order",): (True, _int_at_least(0)),
        path + ("coeffs",): (True, _is(list)),
        path + ("coeffs", "*"): (False, _object(required=("lam", "poly"))),
        path + ("coeffs", "*", "lam"): (True, _int_at_least(0)),
        **_monomial_fields(path + ("coeffs", "*", "poly")),
    }


INLINE = ("star_product", "inline")
COCHAIN_TERM = INLINE + ("cochains", "*", "terms", "*")
ENTRY = ("tests", "explicit", "*", "entries", "*", "*")


# config field (list indices as "*") -> (required, which values are valid)
CONFIG_FIELDS = {
    (): (True, _object("name", "n", "K", "N", "star_product", "functional", "tau",
                       "tests", "commands")),
    ("name",): (True, _is(str)),
    ("n",): (True, _int_at_least(1)),
    ("K",): (True, _int_at_least(0)),
    ("N",): (False, _int_at_least(1)),
    ("star_product",): (True, _is(dict)),
    ("star_product", "generator"):
        (True, lambda v: v in ("constant_theta", "zero", "linear_poisson_2d")),
    INLINE: (True, _object("theta", required=("n", "hermitian", "cochains"))),
    INLINE + ("n",): (True, _equal(2)),
    INLINE + ("hermitian",): (True, _is(bool)),
    INLINE + ("theta",): (False, lambda v: v is None or _list_of(2, _list_of(2, _exact))(v)),
    INLINE + ("theta", "*"): (True, _list_of(2, _exact)),
    INLINE + ("theta", "*", "*"): (True, _exact),
    INLINE + ("cochains",): (True, _is(list)),
    INLINE + ("cochains", "*"): (False, _object(required=("lambda_power", "terms"))),
    INLINE + ("cochains", "*", "lambda_power"): (True, _int_at_least(1)),
    INLINE + ("cochains", "*", "terms"): (True, _is(list)),
    COCHAIN_TERM: (False, _object(required=("coeff_poly", "derivs"))),
    COCHAIN_TERM + ("coeff_poly",): (True, _object(required=("n", "terms"))),
    COCHAIN_TERM + ("coeff_poly", "n"): (True, _equal(2)),
    **_monomial_fields(COCHAIN_TERM + ("coeff_poly", "terms")),
    COCHAIN_TERM + ("derivs",): (True, _list_of(2, _exponents)),
    COCHAIN_TERM + ("derivs", "*"): (True, _exponents),
    COCHAIN_TERM + ("derivs", "*", "*"): (True, _int_at_least(0)),
    ("tau",): (False, _object("source")),
    ("tau", "source"): (False, lambda v: v in ("solver", "closed_form")),
    ("functional",): (True, _is(dict)),
    ("functional", "atoms"): (True, _is(list)),
    ("functional", "atoms", "*"): (False, _object(required=("point", "vector"))),
    ("functional", "atoms", "*", "point"): (True, _is(list)),
    ("functional", "atoms", "*", "point", "*"): (True, _exact),
    ("functional", "atoms", "*", "vector"): (True, _is(list)),
    ("functional", "atoms", "*", "vector", "*"): (True, _scalar_string),
    ("tests",): (False, _object("explicit", "random")),
    ("tests", "explicit"): (False, _is(list)),
    ("tests", "explicit", "*"): (False, lambda v: _object(required=("entries",))(v) or
                                 _object(required=("n", "max_order", "coeffs"))(v)),
    **_lambda_poly_fields(("tests", "explicit", "*")),
    ("tests", "explicit", "*", "entries"): (True, _list_of(1, _is(list))),
    ("tests", "explicit", "*", "entries", "*"): (True, _list_of(1, _is(dict))),
    ENTRY: (True, _object(required=("n", "max_order", "coeffs"))),
    **_lambda_poly_fields(ENTRY),
    ("tests", "random"): (False, _object("seed", "count", "max_q_degree", "max_coeff",
                                         "lambda_corrections")),
    ("tests", "random", "seed"): (True, _int_at_least(0)),
    ("tests", "random", "count"): (False, _int_at_least(0)),
    ("tests", "random", "max_q_degree"): (False, _int_at_least(0)),
    ("tests", "random", "max_coeff"): (False, _int_at_least(1)),
    ("tests", "random", "lambda_corrections"): (False, _is(bool)),
    ("commands",): (False, _is(list)),
    ("commands", "*"): (False, lambda v: v in OPS or (
        isinstance(v, dict) and v.get("op") in OPS)),
    ("commands", "*", "op"): (True, lambda v: v in OPS),
    ("commands", "*", "functional"):
        (False, lambda v: v in ("deformed", "undeformed")),
    ("commands", "*", "expect"): (False, lambda v: v in ("nonnegative", "negative")),
}


def _mutated(data, path, value):
    if not path:
        return value
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


class TestScenarioFuzz:
    """One field of a scenario replaced or deleted: the CLI keeps its exit
    codes and raises nothing, and a config field given a value of the wrong
    type or range, or deleted when required, exits 2."""

    BASES = _fuzz_bases()

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(where=st.sampled_from([(base, path) for base in BASES for path in _paths(base)]),
           value=st.sampled_from(FUZZ_VALUES))
    def test_mutated_scenario_keeps_exit_contract(self, tmp_path, where, value):
        base, path = where
        assume(path or value != DELETE)
        scenario = tmp_path / "fuzz.json"
        scenario.write_text(json.dumps(_mutated(base, path, value)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["run", "--scenario", str(scenario)])
        assert code in (0, 1, 2, 3)
        field = tuple("*" if isinstance(key, int) else key for key in path)
        if field in CONFIG_FIELDS:
            required, valid = CONFIG_FIELDS[field]
            if required if value == DELETE else not valid(value):
                assert code == 2
                assert err.getvalue().startswith("configuration error:")


# every key that some reader reads, in some object
READ_KEYS = {key for field in CONFIG_FIELDS for key in field if key != "*"}


def _dotted(path):
    """A path of keys and list indices as the reader names it."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


class TestUnreadKeys:
    """A key that nothing reads, inserted into any object of a scenario,
    exits 2 before any command runs, and the message names its full path."""

    OBJECTS = [(base, path) for base in TestScenarioFuzz.BASES for path in _paths(base)
               if isinstance(_walk(base, path), dict)]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(where=st.sampled_from(OBJECTS),
           key=st.from_regex(r"[a-z_]{1,8}", fullmatch=True).filter(
               lambda k: k not in READ_KEYS))
    def test_unread_key_is_refused_by_its_path(self, tmp_path, where, key):
        base, path = where
        data = json.loads(json.dumps(base))
        _walk(data, path)[key] = 1
        scenario = tmp_path / "unread.json"
        scenario.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["run", "--scenario", str(scenario)])
        assert code == 2 and out.getvalue() == ""
        assert f"unknown scenario field {_dotted(path + (key,))!r}" in err.getvalue()


def test_committed_fixtures_match_the_generator():
    path = SCENARIO_DIR.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    generated = module.fixtures()
    assert sorted(p.name for p in generated) == [
        "linear-poisson-2d-spec.json", "perturbed-c2.json"]
    for fixture, text in generated.items():
        assert fixture.read_text() == text, fixture.name


def test_committed_goldens_match_the_generator():
    path = SCENARIO_DIR.parent / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    generated = module.goldens()
    golden_dir = SCENARIO_DIR.parent / "tests" / "golden"
    assert sorted(generated) == sorted(golden_dir.glob("*.json"))
    for golden, text in generated.items():
        assert golden.read_text() == text, golden.name
