"""Command-line front end.

Verbs map to pipeline stages: `validate` checks the star product,
`build-tau` additionally constructs the embedding, `deform` builds the
corrected functional, `check-pos` also classifies the test set, and
`run` executes the scenario's own command list.  Every verb takes
--scenario; --max-order and --seed override the scenario's truncation
order and random-test seed; --out and --format control report output.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .scenario import (ConfigurationError, EXIT_CONFIG, Scenario, emit_report,
                       load_scenario, run_scenario)

_STAGE_PREFIX = {
    "validate": ["validate"],
    "build-tau": ["validate", "build-tau"],
    "deform": ["validate", "build-tau", "deform"],
    "check-pos": None,  # scenario's full command list
    "run": None,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqw",
        description="exact-arithmetic workbench for star products and "
                    "positivity of deformed functionals",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("validate", "build-tau", "deform", "check-pos", "run"):
        p = sub.add_parser(verb)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--max-order", type=int, default=None,
                       help="override the truncation order K")
        p.add_argument("--seed", type=int, default=None,
                       help="override the random-test seed")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        prefix = _STAGE_PREFIX[args.verb]
        if prefix is not None:
            scenario = Scenario.from_json(
                {**scenario.to_json(), "commands": prefix}
            )
        report, code = run_scenario(
            scenario,
            seed_override=args.seed,
            max_order_override=args.max_order,
        )
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    rendered = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


def run() -> int:
    """The process entry point: `python -m dqw.cli` and the `dqw` script."""
    code = main()
    # The report is written and the process is about to exit.  Freezing
    # moves every live object out of the collector's generations, so the
    # collections at interpreter shutdown do not traverse every term,
    # cochain and code object the run left alive; the memory goes back
    # to the system at exit either way.  main() itself does not
    # freeze, because the tests call it in-process.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
