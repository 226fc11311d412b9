import contextlib
import importlib.util
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dqw.cli import main as cli_main
from dqw.rationals import parse_scalar
from dqw.scenario import (ConfigurationError, Scenario, emit_report,
                          load_scenario, run_scenario, strip_timings)

from conftest import SCENARIO_DIR


class Replace:
    """A mutation result that replaces the whole scenario document."""

    def __init__(self, document):
        self.document = document


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

    def test_unknown_format_rejected(self):
        report, _ = run_scenario(load("k0-degenerate"))
        with pytest.raises(ConfigurationError):
            emit_report(report, "yaml")


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
    ])
    def test_malformed_scenario_exit_two(self, tmp_path, capsys, field, mutate):
        data = json.loads((SCENARIO_DIR / "moyal-r2-delta.json").read_text())
        result = mutate(data)
        if isinstance(result, Replace):
            data = result.document
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = cli_main(["run", "--scenario", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and field in err

    def test_max_order_override(self, capsys):
        code = cli_main(["run", "--scenario",
                         str(SCENARIO_DIR / "zero-poisson.json"),
                         "--max-order", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["K"] == 2


# The fuzzed document is k0-degenerate with one random test added, so
# that every config field of a scenario occurs.
def _fuzz_base() -> dict:
    data = json.loads((SCENARIO_DIR / "k0-degenerate.json").read_text())
    data["tests"]["random"] = {"seed": 0, "count": 1, "max_q_degree": 1,
                               "max_coeff": 1, "lambda_corrections": True}
    return data


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


def _object(*keys):
    """An object with no key outside `keys`: a key nothing reads is refused."""
    return lambda v: isinstance(v, dict) and set(v) <= set(keys)


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
    ("tau",): (False, _object("source")),
    ("tau", "source"): (False, lambda v: v in ("solver", "closed_form")),
    ("functional",): (True, _is(dict)),
    ("functional", "atoms"): (True, _is(list)),
    ("functional", "atoms", "*", "point"): (True, _is(list)),
    ("functional", "atoms", "*", "point", "*"): (True, _exact),
    ("functional", "atoms", "*", "vector"): (True, _is(list)),
    ("functional", "atoms", "*", "vector", "*"): (True, _scalar_string),
    ("tests",): (False, _object("explicit", "random")),
    ("tests", "explicit"): (False, _is(list)),
    ("tests", "explicit", "*", "n"): (True, _int_at_least(1)),
    ("tests", "explicit", "*", "max_order"): (True, _int_at_least(0)),
    ("tests", "explicit", "*", "coeffs"): (True, _is(list)),
    ("tests", "explicit", "*", "coeffs", "*", "poly"): (True, _is(list)),
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

    BASE = _fuzz_base()

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(list(_paths(BASE))), value=st.sampled_from(FUZZ_VALUES))
    def test_mutated_scenario_keeps_exit_contract(self, tmp_path, path, value):
        assume(path or value != DELETE)
        scenario = tmp_path / "fuzz.json"
        scenario.write_text(json.dumps(_mutated(self.BASE, path, value)))
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
