"""Smoke test of the traced benchmark run: the tracer wraps functions by
name and identity, so a refactor that renames or rebinds them would
otherwise break the per-layer figures without any test failing."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_cli_run(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out),
         "run", "--scenario", str(ROOT / "scenarios" / "k0-degenerate.json")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["problems"] == []
    assert result["incl"]["weyl.resolve_fock_sign"] > 0
    # the scalar counters wrap the operator slots of GaussianRational, so
    # arithmetic routed around those slots would read zero here
    counts = result["counts"]
    assert counts["rationals.mul_calls"] > 0
    assert counts["rationals.add_calls"] > 0
