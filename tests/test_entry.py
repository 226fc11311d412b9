"""The `dqw` process as a user starts it: `python -m dqw.cli` in a fresh
interpreter, its imports, exit codes and reports."""

import json
import os
import subprocess
import sys

import pytest

from dqw.functionals import MatrixLambdaPoly
from dqw.cli import report_to_json_text, run_scenario, strip_timings
from dqw.scenario import load_scenario

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
