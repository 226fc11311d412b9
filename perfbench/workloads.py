"""The benchmark's workloads and the known answer of each operation.

A workload is a list of operations.  Each operation is one `dqw` CLI
invocation, run in a fresh process, and carries what its report must say.
Inputs that are not shipped scenarios are generated from the workload
seed into a scratch directory, so the program sees only those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Shipped scenarios that together take every exit path of `dqw run` in
# about 3.5 s: moyal-r2-delta runs the sign search once and both an
# expect-negative and an expect-nonnegative check-pos, k0-degenerate the
# K = 0 pipeline and perturbed-c2 the exit-1 path.  The other shipped
# scenarios each pay the same ~2.5 s n = 2 sign search again (n = 3 alone
# takes ~17 s), which would leave too few repeats per run to be steady.
SHIPPED = ("moyal-r2-delta", "k0-degenerate", "perturbed-c2")

# The one shipped scenario whose star product is invalid: `dqw run` stops
# at validate and exits 1.
FAILS_AT_VALIDATE = {"perturbed-c2"}

BUILD_ORDER = 4          # --max-order of both build operations (~1.5 s each)

# The sign of the Weyl/Wick equivalence discovered at run time.
SIGMA = -1


@dataclass(frozen=True)
class Op:
    """One CLI operation and its known answer."""

    label: str
    argv: tuple                  # arguments after `python -m dqw.cli`
    outcomes: tuple              # expected (command, outcome), in order
    exit_code: int = 0
    stages: int | None = None    # build-tau stages the report must list
    tau: str | None = None       # embedding source build-tau must report


def _shipped_ops(root: Path, seed: int) -> list:
    ops = []
    for name in SHIPPED:
        path = root / "scenarios" / f"{name}.json"
        if name in FAILS_AT_VALIDATE:
            outcomes, code = (("validate", "fail"),), 1
        else:
            commands = json.loads(path.read_text())["commands"]
            outcomes = tuple((c if isinstance(c, str) else c["op"], "pass")
                             for c in commands)
            code = 0
        ops.append(Op(name, ("run", "--scenario", str(path), "--seed", str(seed)),
                      outcomes, exit_code=code))
    return ops


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 4), rng.randint(1, 3)))


def moyal_n4_scenario(seed: int) -> dict:
    """A constant bracket on R^4 with two 2x2 blocks of seeded values."""
    rng = random.Random(seed)
    a, b = _rational(rng), _rational(rng)
    theta = [["0", a, "0", "0"], [f"-{a}", "0", "0", "0"],
             ["0", "0", "0", b], ["0", "0", f"-{b}", "0"]]
    return {
        "name": "bench-moyal-n4", "n": 4, "K": BUILD_ORDER, "N": 1,
        "star_product": {"generator": "constant_theta", "theta": theta},
        "tau": {"source": "solver"},
        "functional": {"atoms": [{"point": ["0"] * 4, "vector": ["1"]}]},
        "commands": ["validate", "build-tau"],
    }


def _write(scratch: Path, scenario: dict) -> Path:
    path = scratch / f"{scenario['name']}.json"
    path.write_text(json.dumps(scenario, indent=1))
    return path


def _build_op(label: str, path: Path) -> Op:
    return Op(label, ("build-tau", "--scenario", str(path),
                      "--max-order", str(BUILD_ORDER)),
              (("validate", "pass"), ("build-tau", "pass")),
              stages=BUILD_ORDER, tau="solver")


def make_ops(workload: str, root: Path, scratch: Path, seed: int) -> list:
    """The operations of `workload`, with generated inputs in `scratch`."""
    if workload == "scenarios":
        return _shipped_ops(root, seed)
    if workload == "build-tau":
        # many small coboundaries and solves on linear-poisson-2d, large
        # compositions on the n = 4 bracket
        return [_build_op("linear-poisson-2d",
                          root / "scenarios" / "linear-poisson-2d.json"),
                _build_op("moyal-n4", _write(scratch, moyal_n4_scenario(seed)))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scenarios", "build-tau")


def input_paths(ops) -> list:
    return [op.argv[op.argv.index("--scenario") + 1] for op in ops]


def check(op: Op, code: int, report: dict | None) -> list:
    """Problems with one operation's result; empty when it is right.

    The check is semantic, never a byte comparison with a golden report,
    so a change that picks another certified embedding still passes.
    """
    if code != op.exit_code:
        return [f"exit code {code}, expected {op.exit_code}"]
    if report is None:
        return ["no report written"]
    problems = []
    if report["overall"]["exit_code"] != code:
        problems.append("report exit code differs from the process exit code")
    got = tuple((c["op"], c["outcome"]) for c in report["commands"])
    if got != op.outcomes:
        problems.append(f"outcomes {got}, expected {op.outcomes}")
    for c in report["commands"]:
        detail = c.get("detail") or {}
        if c["op"] == "build-tau" and c["outcome"] == "pass":
            if not detail["poisson_realization"]["ok"]:
                problems.append("Poisson realization not certified")
            if op.tau is not None and detail["tau"] != op.tau:
                problems.append(f"embedding {detail['tau']}, expected {op.tau}")
            if op.stages is not None and len(detail["report"]["stages"]) != op.stages:
                problems.append(f"{len(detail['report']['stages'])} build stages, "
                                f"expected {op.stages}")
        elif c["op"] == "deform" and detail.get("sigma") != SIGMA:
            problems.append(f"sigma {detail.get('sigma')}, expected {SIGMA}")
        elif c["op"] == "check-pos":
            signs = [t["classification"] for t in detail.get("tests", [])]
            if detail.get("expect") == "negative" and "negative" not in signs:
                problems.append("expect-negative step found no negative test")
            if detail["functional"].get("kind") == "deformed" and "negative" in signs:
                problems.append("a deformed test classified negative")
    return problems
