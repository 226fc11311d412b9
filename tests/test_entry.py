"""The `dqw` process as a user starts it: `python -m dqw.cli` in a fresh
interpreter, its imports, exit codes and reports."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from dqw.functionals import MatrixLambdaPoly
from dqw.cli import report_to_json_text, run_scenario, strip_timings
from dqw.scenario import load_scenario
from dqw.starspec import (digest_json, make_constant_theta_star, make_linear_poisson_2d_star,
                          make_zero_star)

from conftest import SCENARIO_DIR

SRC = SCENARIO_DIR.parent / "src"
GOLDEN_DIR = SCENARIO_DIR.parent / "tests" / "golden"


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter: pytest itself has loaded both modules here
    probe = _python("-c", "import sys, dqw.cli; "
                          "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


@pytest.mark.parametrize("verb, name", [("run", "k0-degenerate"),
                                        ("build-tau", "linear-poisson-2d")])
def test_main_leaves_out_openssl(tmp_path, verb, name):
    # hashlib loads _hashlib, which maps OpenSSL's libcrypto into the process
    argv = [verb, "--scenario", str(SCENARIO_DIR / f"{name}.json"),
            "--out", str(tmp_path / "report.json")]
    probe = _python("-c", "import sys; from dqw.cli import main; "
                          f"code = main({argv!r}); "
                          "print(code, sorted({'hashlib', '_hashlib', 'ssl'} & set(sys.modules)))")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "0 []"


DIGESTED = {
    **{path.stem: lambda path=path: load_scenario(str(path))
       for path in sorted(SCENARIO_DIR.glob("*.json")) if not path.name.endswith("-spec.json")},
    "constant_theta": lambda: make_constant_theta_star([[0, 1], [-1, 0]], K=4),
    "zero": lambda: make_zero_star(2, 3),
    "linear_poisson_2d": lambda: make_linear_poisson_2d_star(K=3),
}


@pytest.mark.parametrize("name", DIGESTED)
def test_digest_json_is_the_sha256_of_the_compact_sorted_json(name):
    """Each shipped scenario (the report's `digest`) and each generator's
    star product (the build report's `spec_digest`)."""
    document = DIGESTED[name]().to_json()
    blob = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    assert digest_json(document) == hashlib.sha256(blob).hexdigest()


SHA256_MODULES = ("_sha256", "_sha2", "hashlib")


@pytest.mark.parametrize("blocked", [(), ("_sha256",), ("_sha256", "_sha2")])
def test_digest_json_takes_the_first_sha256_module_that_imports(blocked):
    # a fresh interpreter, in which a module set to None in sys.modules
    # raises ImportError when imported; no module of dqw is reloaded
    expected = next(name for name in SHA256_MODULES
                    if name not in blocked and importlib.util.find_spec(name))
    probe = _python("-c", "import sys; "
                          f"sys.modules.update(dict.fromkeys({blocked!r})); "
                          "from dqw.starspec import digest_json; "
                          "print(digest_json({'b': ['1/2'], 'a': 1}), "
                          f"*[name for name in {SHA256_MODULES!r} if sys.modules.get(name)])")
    assert probe.returncode == 0, probe.stderr
    digest, *loaded = probe.stdout.split()
    assert loaded == [expected]
    assert digest == hashlib.sha256(b'{"a":1,"b":["1/2"]}').hexdigest()


@pytest.mark.parametrize("name, code", [("k0-degenerate", 0), ("perturbed-c2", 1)])
def test_module_entry_point_report_matches_golden(tmp_path, name, code):
    out = tmp_path / "report.json"
    proc = _python("-m", "dqw.cli", "run", "--scenario",
                   str(SCENARIO_DIR / f"{name}.json"), "--out", str(out))
    assert proc.returncode == code, proc.stderr
    stripped = strip_timings(json.loads(out.read_text()))
    assert report_to_json_text(stripped) == (GOLDEN_DIR / f"{name}.json").read_text()


def test_module_entry_point_names_a_malformed_field(tmp_path):
    data = json.loads((SCENARIO_DIR / "k0-degenerate.json").read_text())
    data["tests"]["explicit"][0]["max_order"] = 2.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = _python("-m", "dqw.cli", "run", "--scenario", str(bad),
                   "--out", str(tmp_path / "report.json"))
    assert proc.returncode == 2
    assert "'tests.explicit[0].max_order'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_squares_each_test_once(monkeypatch):
    """moyal-r2-delta's two check-pos commands read one set of squares."""
    squared = []
    star_mul = MatrixLambdaPoly.star_mul

    def counted(self, spec, other):
        squared.append(self)
        return star_mul(self, spec, other)

    monkeypatch.setattr(MatrixLambdaPoly, "star_mul", counted)
    report, code = run_scenario(load_scenario(str(SCENARIO_DIR / "moyal-r2-delta.json")))
    golden = json.loads((GOLDEN_DIR / "moyal-r2-delta.json").read_text())

    def verdicts(rep):
        return [c for c in rep["commands"] if c["op"] == "check-pos"]

    assert code == 0
    assert len(verdicts(report)) == 2
    assert len(squared) == len(verdicts(report)[0]["detail"]["tests"]) == 25
    assert verdicts(report) == verdicts(golden)
