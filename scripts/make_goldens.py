#!/usr/bin/env python3
"""Regenerate the golden reports.

Runs every shipped scenario (each `scenarios/*.json` except the
`*-spec.json` star products) and writes its report, with the `timings`
section stripped, to `tests/golden/<name>.json`: the text that the
determinism acceptance test compares byte for byte.  Run it after a
change that is meant to alter the reports, and review the diff.

    python scripts/make_goldens.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dqw.cli import report_to_json_text, run_scenario, strip_timings
from dqw.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"


def goldens() -> dict:
    """The golden reports as {path: file text}."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        if path.name.endswith("-spec.json"):
            continue
        report, _code = run_scenario(load_scenario(str(path)))
        out[GOLDEN / path.name] = report_to_json_text(strip_timings(report))
    return out


def main():
    for path, text in goldens().items():
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
