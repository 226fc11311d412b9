"""Command-line front end and scenario runner.

Verbs map to pipeline stages: `validate` checks the star product,
`build-tau` additionally constructs the embedding, `deform` builds the
corrected functional, `check-pos` also classifies the test set, and
`run` executes the scenario's own command list.  Every verb takes
--scenario; --max-order and --seed override the scenario's truncation
order and random-test seed; --out and --format control report output.

`run_scenario` executes the commands.  Its report is deterministic, but
for the wall-clock figures of its "timings" section, which comparisons
are expected to strip.

Exit codes: 0 all pass; 1 a mathematical violation or negative verdict;
2 configuration or parse error; 3 verdict-bearing steps ran but every
one was inconclusive.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .functionals import DeformedFunctional, UndeformedExtension, check_positivity, star_squares
from .scenario import ConfigurationError, Scenario, generate_tests, load_scenario
from .starspec import (InvalidStarProduct, StarProductSpec, make_constant_theta_star,
                       make_linear_poisson_2d_star, validate_star)
from .taubuild import (BuildAborted, ClosedFormTau, build_tau, check_multiplicative,
                       check_poisson_realization)
from .welement import NonRealSeries
from .weyl import ConsistencyError


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# scenario materialization
# ---------------------------------------------------------------------------

def build_star_product(scenario: Scenario) -> StarProductSpec:
    if scenario.inline is not None:
        return scenario.inline
    if scenario.theta is None:
        return make_linear_poisson_2d_star(scenario.K)
    return make_constant_theta_star(scenario.theta, scenario.K)


def build_tau_map(scenario: Scenario, spec: StarProductSpec):
    if scenario.tau_source == "solver":
        return build_tau(spec, scenario.K)
    # lam^K of the deformed series is exact once tau is known to degree 2K
    tau = ClosedFormTau(spec.theta, 2 * scenario.K)
    check_multiplicative(spec, tau.components, scenario.K)
    return tau, None


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def run_scenario(scenario: Scenario, seed_override: int | None = None,
                 max_order_override: int | None = None) -> tuple:
    """Execute the scenario.  Returns (report_dict, exit_code)."""
    if max_order_override is not None:
        scenario = scenario.with_fields(K=max_order_override)
    t_start = time.perf_counter()
    timings = {}
    results = []
    verdict_outcomes = []

    spec = None
    tau = None
    tau_report = None
    deformed = None
    squares = None  # of the test set, made by the first check-pos

    def record(op, outcome, detail, t0):
        results.append({"op": op, "outcome": outcome, "detail": detail})
        timings[f"{len(results) - 1}:{op}"] = round(time.perf_counter() - t0, 6)

    for cmd in scenario.ops:
        op = cmd["op"]
        t0 = time.perf_counter()
        if op == "validate":
            spec = spec or build_star_product(scenario)
            report = validate_star(spec, scenario.K)
            record(op, "pass" if report.ok else "fail", report.to_json(), t0)
            if not report.ok:
                break
        elif op == "build-tau":
            spec = spec or build_star_product(scenario)
            try:
                tau, tau_report = build_tau_map(scenario, spec)
            except (BuildAborted, ConsistencyError, InvalidStarProduct) as e:
                record(op, "fail", {"error": str(e)}, t0)
                break
            realization = check_poisson_realization(tau, spec, K=scenario.K)
            detail = {
                "tau": scenario.tau_source,
                "report": tau_report.to_json() if tau_report else None,
                "poisson_realization": realization.to_json(),
            }
            record(op, "pass" if realization.ok else "fail", detail, t0)
            if not realization.ok:
                break
        elif op == "deform":
            deformed = DeformedFunctional(scenario.state, tau, scenario.K)
            record(op, "pass", deformed.describe(), t0)
        else:  # check-pos
            spec = spec or build_star_product(scenario)
            expect = cmd.get("expect", "nonnegative")
            if cmd.get("functional", "deformed") == "deformed":
                functional = deformed
            else:
                functional = UndeformedExtension(scenario.state, scenario.K)
            if squares is None:
                tests, labels = generate_tests(scenario, seed_override)
                squares = star_squares(spec, tests)
            try:
                verdict = check_positivity(functional, squares, labels)
            except NonRealSeries as e:
                record(op, "fail", {"error": str(e)}, t0)
                break
            detail = verdict.to_json()
            detail["expect"] = expect
            if expect == "negative":
                outcome = "pass" if verdict.aggregate == "fail" else "fail"
            else:
                outcome = verdict.aggregate
            record(op, outcome, detail, t0)
            verdict_outcomes.append(outcome)

    outcomes = [r["outcome"] for r in results]
    if any(o == "fail" for o in outcomes):
        exit_code = EXIT_FAIL
        overall = "fail"
    elif verdict_outcomes and all(o == "inconclusive" for o in verdict_outcomes):
        exit_code = EXIT_INCONCLUSIVE
        overall = "inconclusive"
    else:
        exit_code = EXIT_PASS
        overall = "pass"

    timings["total"] = round(time.perf_counter() - t_start, 6)
    report = {
        "scenario": {
            "name": scenario.name,
            "digest": scenario.digest(),
            "n": scenario.n,
            "K": scenario.K,
            "N": scenario.N,
            "seed_override": seed_override,
        },
        "commands": results,
        "overall": {"outcome": overall, "exit_code": exit_code},
        "timings": timings,
    }
    return report, exit_code


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def report_to_json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def report_to_text(report: dict) -> str:
    lines = []
    sc = report["scenario"]
    lines.append(f"scenario {sc['name']} (n={sc['n']}, K={sc['K']}, N={sc['N']})")
    lines.append(f"digest {sc['digest']}")
    for r in report["commands"]:
        lines.append(f"  [{r['outcome'].upper():12s}] {r['op']}")
        detail = r.get("detail") or {}
        if r["op"] == "check-pos" and "tests" in detail:
            for t in detail["tests"]:
                lines.append(
                    f"      {t['label']}: {t['classification']} "
                    f"coefficients {t['coefficients']}"
                )
        if "error" in detail:
            lines.append(f"      error: {detail['error']}")
    ov = report["overall"]
    lines.append(f"overall: {ov['outcome']} (exit {ov['exit_code']})")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return report_to_json_text(report)
    if fmt == "text":
        return report_to_text(report)
    raise ConfigurationError(f"unknown report format {fmt!r}")


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
            scenario = scenario.with_fields(commands=prefix)
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
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as e:
            print(f"configuration error: cannot write report: {e}", file=sys.stderr)
            return EXIT_CONFIG
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
