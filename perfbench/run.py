"""End-to-end and per-layer benchmark of the `dqw` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/dqw` and `scenarios/`.  Every
operation is one fresh `python -m dqw.cli ...` process, run serially: the
sign search of `deform` is memoized per process, so a CLI user pays it on
every run and repeating operations in one process would hide that cost.

With --trace 0 the benchmark repeats whole passes over the workload's
operations for about S seconds and reports, for each operation, its
fastest repeat, summed over the operations.  On a virtual machine that
shares its cores with other tenants, their load comes and goes within a
second and slows a repeat by up to 2x: the fastest of many repeats stays
within a few per cent from run to run, their median does not.  The set-up
(a fresh interpreter that imports dqw and loads the workload's scenarios)
is timed in rounds, several before the passes and one after each pass;
each round keeps its fastest set-up and the median round is reported.
With --trace 1 it runs every operation traced (through
perfbench/tracer.py), untraced and traced again, and reports per-layer
figures from the first traced pass, the tracing overhead, and a
self-check of the spans that includes equal counts in both traced passes.
Either way every operation's report is checked against its known answer,
and the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, check, input_paths, make_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
RUN_BUDGET_S = 170       # every child is killed once the run is this old
SETUP_REPEATS = 5        # set-up rounds before the passes; one more after each
SETUP_TRIES = 3          # set-ups in a round, on alternate cores; it keeps the fastest

SETUP_CODE = ("import sys, dqw, dqw.scenario\n"
              "for path in sys.argv[1:]:\n"
              "    dqw.scenario.load_scenario(path)\n")

# metric name -> unit; the names are the contract of BENCHMARK.json
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "ok_ops_share": "share"}

# span metrics: (metric, span name, "incl" | "self" | "calls")
SPAN_METRICS = [
    ("weyl.resolve_fock_sign.self_s", "weyl.resolve_fock_sign", "self"),
    ("weyl.resolve_fock_sign.calls", "weyl.resolve_fock_sign", "calls"),
    ("weyl.exp_laplace_exact.s", "weyl.exp_laplace_exact", "incl"),
    ("cobsolver.solve_coboundary.s", "cobsolver.solve_coboundary", "incl"),
    ("cobsolver.solve_coboundary.calls", "cobsolver.solve_coboundary", "calls"),
    ("cobsolver.solve_classical_coboundary.s",
     "cobsolver.solve_classical_coboundary", "incl"),
    ("cobsolver.solve_sparse_system.s", "cobsolver.solve_sparse_system", "incl"),
    ("cobsolver.solve_sparse_system.calls", "cobsolver.solve_sparse_system", "calls"),
    ("cochain.compose_slot.s", "cochain.compose_slot", "incl"),
    ("cochain.compose_slot.calls", "cochain.compose_slot", "calls"),
    ("cochain.cochain_weyl_product.s", "cochain.cochain_weyl_product", "incl"),
    ("cochain.coboundary.s", "cochain.coboundary", "incl"),
    ("cochain.coboundary.calls", "cochain.coboundary", "calls"),
    ("taubuild.build_tau.s", "taubuild.build_tau", "incl"),
    ("taubuild.compute_Rk.s", "taubuild.compute_Rk", "incl"),
    ("taubuild.epsilon_cochain.s", "taubuild.epsilon_cochain", "incl"),
    ("taubuild.check_poisson_realization.s",
     "taubuild.check_poisson_realization", "incl"),
    ("taubuild.apply.s", "taubuild.apply", "incl"),
    ("starspec.generator.s", "starspec.generator", "incl"),
    ("starspec.validate_star.s", "starspec.validate_star", "incl"),
    ("starspec.star_apply.s", "starspec.star_apply", "incl"),
    ("starspec.star_apply.calls", "starspec.star_apply", "calls"),
    ("functionals.check_positivity.s", "functionals.check_positivity", "incl"),
    ("functionals.action.s", "functionals.action", "incl"),
    ("scenario.load_scenario.s", "scenario.load_scenario", "incl"),
    ("scenario.generate_tests.s", "scenario.generate_tests", "incl"),
]
# counts read by the tracer from calls and return values
COUNT_METRICS = ["weyl.sign_basis_size", "cobsolver.direct_cells",
                 "cobsolver.escalations", "functionals.tests",
                 "rationals.mul_calls", "rationals.add_calls",
                 "qpoly.mul_calls", "welement.mul_calls"]

# metrics computed from the others
DERIVED_UNITS = {"weyl.resolve_fock_sign.share": "share",
                 "taubuild.solves_per_stage": "ratio",
                 "functionals.inconclusive_share": "share",
                 "rationals.muladd_us": "us",
                 "trace.overhead_share": "share"}

# where the traced run should put the time on today's code; printed, not gated
PREDICTIONS = {
    "scenarios": [("weyl.resolve_fock_sign.share", ">=", 0.80)],
    "build-tau": [("weyl.resolve_fock_sign.calls", "==", 0),
                  ("cobsolver.solve_coboundary.s", ">", 0)],
}


class Runner:
    """Runs child processes serially and measures each with os.wait4."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_BUDGET_S
        # a fixed hash seed makes set and dict orders, and so the traced
        # counts, repeat exactly from one process to the next
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                                   if os.environ.get("PYTHONPATH") else [])))
        self.stderr_path = scratch / "stderr.txt"
        # children are pinned to one of our cores, the next one for each
        # pass: other tenants of a shared host slow one core at a time,
        # often for a minute, so the repeats of an operation see every core
        self.cores = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next_core(self) -> int:
        self.turn += 1
        return self.cores[self.turn % len(self.cores)]

    def spawn(self, argv, core: int) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.stderr_path, "wb") as err:
            os.sched_setaffinity(0, {core})     # the child inherits it
            try:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                        stdout=subprocess.DEVNULL, stderr=err)
            finally:
                os.sched_setaffinity(0, self.cores)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        return {"code": proc.returncode, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_kib": usage.ru_maxrss}

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-800:]

    def run_op(self, op, core: int, trace_out: Path | None = None) -> dict:
        report_path = self.scratch / "report.json"
        report_path.unlink(missing_ok=True)
        cli = list(op.argv) + ["--out", str(report_path)]
        if trace_out is None:
            argv = [sys.executable, "-m", "dqw.cli"] + cli
        else:
            trace_out.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(trace_out)] + cli
        result = self.spawn(argv, core)
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = None
        result["problems"] = check(op, result["code"], report)
        if result["problems"]:
            print(f"FAILED {op.label}: {'; '.join(result['problems'])}\n"
                  f"{self.stderr_tail()}", file=sys.stderr)
        if trace_out is not None:
            try:
                result["trace"] = json.loads(trace_out.read_text())
            except (OSError, ValueError):
                result["trace"] = None
        return result

    def run_pass(self, ops) -> list:
        core = self.next_core()
        return [self.run_op(op, core) for op in ops]


def fraction_probe_ms() -> float:
    """A fixed pure-Python Fraction loop; shows machine drift within a run."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        h = 0
        for i in range(1, 3001):
            h ^= hash(Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
                      + Fraction(5, i))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def tally(results) -> tuple:
    return len(results), sum(1 for r in results if r["problems"])


def measure(runner, ops, args) -> tuple:
    """End-to-end metrics with tracing off."""
    setup_argv = [sys.executable, "-c", SETUP_CODE] + input_paths(ops)

    def set_up() -> float:
        # a set-up (~0.1 s) can fall wholly inside a burst of other load
        # on its core, so a round tries alternate cores, keeps the fastest
        walls = []
        for i in range(SETUP_TRIES):
            r = runner.spawn(setup_argv, runner.cores[i % len(runner.cores)])
            if r["code"] != 0:
                raise RuntimeError(f"set-up process failed:\n{runner.stderr_tail()}")
            walls.append(r["wall"])
        return min(walls)

    probes = [fraction_probe_ms()]
    setups = []
    set_up()                 # warms the file cache and the bytecode caches
    for _ in range(SETUP_REPEATS):
        setups.append(set_up())
    probes.append(fraction_probe_ms())

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(ops))
        setups.append(set_up())
        elapsed = time.perf_counter() - start
        typical = elapsed / len(passes)
        if elapsed + typical > args.seconds or time.monotonic() + typical > runner.deadline:
            break
    probes.append(fraction_probe_ms())

    results = [r for p in passes for r in p]
    attempted, failed = tally(results)
    walls = [[p[i]["wall"] for p in passes] for i in range(len(ops))]
    cpus = [[p[i]["cpu"] for p in passes] for i in range(len(ops))]
    metrics = {
        "wall_s": sum(min(w) for w in walls),
        "cpu_s": sum(min(c) for c in cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_kib"] for r in results) / 1024,
        "ok_ops_share": (attempted - failed) / attempted,
    }
    print(f"samples: {len(passes)} passes of {len(ops)} operations, "
          f"{len(setups)} set-up rounds of {SETUP_TRIES}")
    for i, op in enumerate(ops):
        print(f"  op {op.label:24s} wall min {min(walls[i]):7.3f} "
              f"median {statistics.median(walls[i]):7.3f} "
              f"max {max(walls[i]):7.3f} s  cpu min {min(cpus[i]):7.3f} s  "
              f"rss {max(p[i]['rss_kib'] for p in passes) / 1024:6.1f} MiB  "
              f"exit {passes[0][i]['code']}")
        print("    walls (s): " + " ".join(f"{w:.3f}" for w in walls[i]))
    print(f"median pass: {statistics.median(sum(r['wall'] for r in p) for p in passes):.3f} s")
    print(f"fraction probe (ms) before set-up / before passes / after passes: "
          + " / ".join(f"{p:.2f}" for p in probes))
    print(f"failed_ops: {failed} of {attempted}")
    return metrics, attempted, failed, True


def _aggregate(results) -> dict:
    total = {"incl": Counter(), "self": Counter(), "calls": Counter(),
             "counts": Counter(), "problems": []}
    for r in results:
        trace = r["trace"]
        if trace is None:
            total["problems"].append("an operation wrote no trace")
            continue
        for key in ("incl", "self", "calls", "counts"):
            total[key].update(trace[key])
        total["problems"] += trace["problems"]
    return total


def layer_metrics(agg, traced_wall, muladd_us) -> dict:
    m = {name: float(agg[kind][span]) if kind != "calls" else agg[kind][span]
         for name, span, kind in SPAN_METRICS}
    for name in COUNT_METRICS:
        m[name] = agg["counts"][name]
    m["weyl.resolve_fock_sign.share"] = agg["incl"]["weyl.resolve_fock_sign"] / traced_wall
    solves = agg["calls"]["cobsolver.solve_coboundary"]
    m["taubuild.solves_per_stage"] = agg["counts"]["taubuild.stages"] / solves if solves else 0.0
    tests = agg["counts"]["functionals.tests"]
    m["functionals.inconclusive_share"] = (
        agg["counts"]["functionals.inconclusive"] / tests if tests else 0.0)
    m["rationals.muladd_us"] = muladd_us
    return m


def _holds(value, op, bound) -> bool:
    return {">=": value >= bound, ">": value > bound, "==": value == bound}[op]


def trace(runner, ops, args) -> tuple:
    """Per-layer metrics from a traced run, with its self-check."""
    probes = [fraction_probe_ms()]
    r = subprocess.run([sys.executable, str(TRACER), "--muladd", str(args.seed)],
                       cwd=ROOT, env=runner.env, capture_output=True, text=True,
                       timeout=60, check=True)
    muladd_us = float(r.stdout.split()[-1])
    # traced, untraced, traced back to back per operation, so that a change
    # of machine speed during the run largely cancels out of the overhead
    trace_out = runner.scratch / "trace.json"
    traced, untraced = ([], []), []
    for op in ops:
        core = runner.next_core()
        traced[0].append(runner.run_op(op, core, trace_out))
        untraced.append(runner.run_op(op, core))
        traced[1].append(runner.run_op(op, core, trace_out))
    probes.append(fraction_probe_ms())

    first, second = _aggregate(traced[0]), _aggregate(traced[1])
    problems = first["problems"] + second["problems"]
    for key in ("calls", "counts"):
        if first[key] != second[key]:
            diff = sorted(k for k in set(first[key]) | set(second[key])
                          if first[key][k] != second[key][k])
            problems.append(f"traced passes disagree on {key}: {diff[:8]}")
    untraced_wall = sum(r["wall"] for r in untraced)
    traced_wall = sum(r["wall"] for r in traced[0])
    mean_traced_wall = (traced_wall + sum(r["wall"] for r in traced[1])) / 2
    metrics = layer_metrics(first, traced_wall, muladd_us)
    metrics["trace.overhead_share"] = mean_traced_wall / untraced_wall - 1

    results = untraced + traced[0] + traced[1]
    attempted, failed = tally(results)
    print(f"traced pass {mean_traced_wall:.3f} s (mean of two), "
          f"untraced pass {untraced_wall:.3f} s, "
          f"overhead {metrics['trace.overhead_share']:+.1%}")
    print("self time by span (share of the traced pass):")
    for name, own in first["self"].most_common(8):
        print(f"  {name:40s} {own:8.3f} s  {own / traced_wall:6.1%}")
    for name, op, bound in PREDICTIONS[args.workload]:
        verdict = "holds" if _holds(metrics[name], op, bound) else "DOES NOT HOLD"
        print(f"prediction {name} {op} {bound}: {metrics[name]:.4g} {verdict}")
    print("unmeasured: koszul (no pipeline path calls it)")
    print("fraction probe (ms) before / after: "
          + " / ".join(f"{p:.2f}" for p in probes))
    print(f"failed_ops: {failed} of {attempted}")
    for p in problems:
        print(f"trace self-check: {p}", file=sys.stderr)
    print(f"trace self-check: {'ok' if not problems else 'FAILED'}")
    return metrics, attempted, failed, not problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "count" if name.endswith("calls") or name in COUNT_METRICS else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dqw" / "cli.py").is_file() or \
            not (ROOT / "scenarios").is_dir():
        print(f"no dqw sources under {ROOT}: expected src/dqw and scenarios/",
              file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment(args)))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        scratch = Path(tmp)
        runner = Runner(scratch)
        ops = make_ops(args.workload, ROOT, scratch, args.seed)
        body = trace if args.trace else measure
        metrics, attempted, failed, self_check_ok = body(runner, ops, args)

    for name, value in metrics.items():
        print(f"metric {name} = {value} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0 and self_check_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
