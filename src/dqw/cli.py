"""Command-line front end and scenario runner.

    dqw VERB --scenario FILE [--max-order K] [--seed N] [--out FILE]
             [--format json|text]

Verbs map to pipeline stages: `validate` checks the star product,
`build-tau` additionally constructs the embedding, `deform` builds the
corrected functional, `check-pos` also classifies the test set, and
`run` executes the scenario's own command list.  Every verb takes
--scenario; --max-order and --seed override the scenario's truncation
order and random-test seed; --out and --format control report output.
An option's value follows it as the next argument or after `=`; options
are spelled in full.  `parse_args` reads this fixed grammar itself, so a
process does not import argparse.

`run_scenario` executes the commands.  Its report is deterministic, but
for the wall-clock figures of its "timings" section, which comparisons
are expected to strip.  `report_to_json_text` writes a report as
`json.dumps(report, sort_keys=True, indent=2)` would, without json's
pure-Python indenting encoder.

Exit codes: 0 all pass (and -h/--help); 1 a mathematical violation or
negative verdict; 2 configuration, usage or parse error; 3
verdict-bearing steps ran but every one was inconclusive.
"""

from __future__ import annotations

import gc
import sys
import time
from json.encoder import encode_basestring_ascii

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
            record(op, "pass" if report["ok"] else "fail", report, t0)
            if not report["ok"]:
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
                "poisson_realization": realization,
            }
            record(op, "pass" if realization["ok"] else "fail", detail, t0)
            if not realization["ok"]:
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

# the floats whose json spelling is not their repr
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_parts(v, parts: list, pad: str) -> None:
    """Append the text of v at indentation pad to parts, exactly as
    json.dumps(v, sort_keys=True, indent=2) writes it.  v is built from
    dict (with str keys), list, str, int, float, bool and None; anything
    else raises TypeError."""
    t = type(v)
    if t is str:
        parts.append(encode_basestring_ascii(v))
    elif t is dict:
        if not v:
            parts.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{\n" + inner, ",\n" + inner
        for key in sorted(v):
            if type(key) is not str:
                raise TypeError(f"JSON object key {key!r} is not a str")
            parts += (sep, encode_basestring_ascii(key), ": ")
            _json_parts(v[key], parts, inner)
            sep = comma
        parts.append("\n" + pad + "}")
    elif t is list:
        if not v:
            parts.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[\n" + inner, ",\n" + inner
        if all(type(x) is int for x in v):
            parts.append(sep + comma.join(map(int.__repr__, v)) + "\n" + pad + "]")
            return
        for x in v:
            parts.append(sep)
            _json_parts(x, parts, inner)
            sep = comma
        parts.append("\n" + pad + "]")
    elif v is None:
        parts.append("null")
    elif t is bool:
        parts.append("true" if v else "false")
    elif t is int:
        parts.append(int.__repr__(v))
    elif t is float:
        text = float.__repr__(v)
        parts.append(_FLOAT_WORDS.get(text, text))
    else:
        raise TypeError(f"{t.__name__} value {v!r} is not JSON serializable")


def report_to_json_text(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) and a newline."""
    parts: list = []
    _json_parts(report, parts, "")
    parts.append("\n")
    return "".join(parts)


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


def write_report(report: dict, fmt: str, fh) -> None:
    """Write the report to fh in the format fmt, "json" or "text"."""
    if fmt == "json":
        fh.write(report_to_json_text(report))
    elif fmt == "text":
        fh.write(report_to_text(report))
    else:
        raise ConfigurationError(f"unknown report format {fmt!r}")


_STAGE_PREFIX = {
    "validate": ["validate"],
    "build-tau": ["validate", "build-tau"],
    "deform": ["validate", "build-tau", "deform"],
    "check-pos": None,  # scenario's full command list
    "run": None,
}


USAGE = """\
usage: dqw VERB --scenario FILE [--max-order K] [--seed N] [--out FILE]
           [--format json|text]

exact-arithmetic workbench for star products and positivity of deformed
functionals

verbs: validate, build-tau, deform, check-pos, run
  --scenario FILE  scenario JSON file
  --max-order K    override the truncation order K
  --seed N         override the random-test seed
  --out FILE       write the report here (default: standard output)
  --format FORMAT  json (default) or text
"""


def parse_args(argv) -> dict | None:
    """The verb and the options of one invocation by name ("verb",
    "scenario", "max-order", "seed", "out", "format"), or None when
    -h/--help asks for the usage text.  An option's value is the next
    argument or follows `=`.  A usage error raises ConfigurationError,
    which names the option and the bad value."""
    args = {"verb": None, "scenario": None, "max-order": None, "seed": None,
            "out": None, "format": "json"}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if args["verb"] is None:
            if token not in _STAGE_PREFIX:
                raise ConfigurationError(
                    f"unknown verb {token!r}; expected one of {', '.join(_STAGE_PREFIX)}")
            args["verb"] = token
            continue
        name, eq, value = token.partition("=")
        if not name.startswith("--") or name[2:] not in args or name == "--verb":
            raise ConfigurationError(f"unknown option {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigurationError(f"option {name} needs a value")
        args[name[2:]] = value
    if args["verb"] is None:
        raise ConfigurationError(f"missing verb; expected one of {', '.join(_STAGE_PREFIX)}")
    if args["scenario"] is None:
        raise ConfigurationError("option --scenario is required")
    for name in ("max-order", "seed"):
        if args[name] is not None:
            try:
                args[name] = int(args[name])
            except ValueError:
                raise ConfigurationError(
                    f"option --{name} takes an integer, not {args[name]!r}") from None
    if args["format"] not in ("json", "text"):
        raise ConfigurationError(
            f"option --format takes json or text, not {args['format']!r}")
    return args


def main(argv=None) -> int:
    """Run one invocation; argv defaults to sys.argv[1:].  Returns the
    exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return EXIT_PASS
        scenario = load_scenario(args["scenario"])
        prefix = _STAGE_PREFIX[args["verb"]]
        if prefix is not None:
            scenario = scenario.with_fields(commands=prefix)
        report, code = run_scenario(
            scenario,
            seed_override=args["seed"],
            max_order_override=args["max-order"],
        )
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args["out"]:
        try:
            with open(args["out"], "w") as fh:
                write_report(report, args["format"], fh)
        except OSError as e:
            print(f"configuration error: cannot write report: {e}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        write_report(report, args["format"], sys.stdout)
    return code


def run() -> int:
    """The process entry point: `python -m dqw.cli` and the `dqw` script."""
    # The run leaves almost no reference cycles (after the benchmark's
    # n = 4 build-tau, gc.collect() finds 33 objects), yet its allocations
    # trigger 25 collections, about 4 ms of that run; one process runs one
    # command, so the collector stays off.
    gc.disable()
    code = main()
    # The report is written and the process is about to exit.  Freezing
    # moves every live object out of the collector's generations, so the
    # collections at interpreter shutdown do not traverse every term,
    # cochain and code object the run left alive; the memory goes back
    # to the system at exit either way.  main() itself neither disables
    # the collector nor freezes, because the tests call it in-process.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
