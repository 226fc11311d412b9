#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

Each pair runs the benchmark command of BENCHMARK.json (`perfbench/run.py`)
once in each checkout, from that checkout's directory and with its own
files, on the same seed; the checkout that goes first alternates from
pair to pair, so a drift in the machine's load falls on both alike.
Every run's end-to-end metrics are printed as they come.  Then, for each
end-to-end metric of BENCHMARK.json, one line gives the median and the
quartiles of both sides, the number of pairs the change won, and the
gap of the medians in the metric's worse direction against its bound
(read in the metric's unit): "EXCEEDS BOUND" when the gap is larger than
the bound; else "unresolved" when the parent's own quartile spread is
wider than the bound, so that noise could hide a regression, unless every
run of the change reads better than every run of the parent; else
"within bound".  A second line says whether a gain claim
would hold: the change wins at least nine tenths of all pairs, ties
counting for neither side, and its median is better than the parent's
by more than the distance between the parent's quartiles.  A run that fails, or whose benchmark
reports incorrect results or failed operations, stops the script with
exit 1.  The script writes no file; the benchmark makes its scratch
directory inside each checkout and removes it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.exit(f"benchmark run failed in {checkout} (exit {done.returncode}):\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    med = statistics.median(values)
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (med, med, med)


def summary(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def bound_verdict(before: list, after: list, sign: int, bound: float) -> str:
    """"EXCEEDS BOUND", "unresolved" or "within bound", as the module
    docstring defines them, for the paired runs of the parent (before)
    and the change (after); sign is 1 when lower is better, -1 when
    higher is."""
    if sign * (statistics.median(after) - statistics.median(before)) > bound:
        return "EXCEEDS BOUND"
    q1, _, q3 = quartiles(before)
    if q3 - q1 > bound and not max(sign * a for a in after) < min(sign * b for b in before):
        return "unresolved"
    return "within bound"


def gain_claim(before: list, after: list, sign: int) -> tuple:
    """(whether a gain claim holds, the line that says so) for the paired
    runs of the parent (before) and the change (after); sign is 1 when
    lower is better, -1 when higher is.  A tie counts for neither side."""
    won = sum(sign * (a - b) < 0 for a, b in zip(after, before))
    gain = sign * (statistics.median(before) - statistics.median(after))
    q1, _, q3 = quartiles(before)
    holds = 10 * won >= 9 * len(before) and gain > q3 - q1
    return holds, (f"  gain claim {'holds' if holds else 'not met'}: won {won}/{len(before)} "
                   f"(needs 9/10), median gain {gain:+.4f} against the parent's "
                   f"quartile spread {q3 - q1:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run_once(sides[side], bench["command"], args.workload,
                           args.seed + i, args.seconds)
            runs[side].append(got)
            print(f"pair {i + 1} {side}: " + " ".join(
                f"{m['name']}={got[m['name']]:.4f}" for m in metrics), flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs, {args.seconds} s per run")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        won = sum(sign * (a - b) < 0 for a, b in zip(after, before))
        gap = sign * (statistics.median(after) - statistics.median(before))
        print(f"{name}: parent {summary(before)}  change {summary(after)}  "
              f"won {won}/{args.pairs}  worse by {gap:+.4f} {m['unit']} "
              f"(bound {bound}): {bound_verdict(before, after, sign, bound)}")
        print(gain_claim(before, after, sign)[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
