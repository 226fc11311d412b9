"""Run one `dqw` CLI operation with spans around each layer's public functions.

    python perfbench/tracer.py OUT.json <dqw cli arguments...>
    python perfbench/tracer.py --muladd SEED

The first form installs the wrappers, runs `dqw.cli.main` and writes the
per-layer aggregates and the span self-check to OUT.json; it exits with
the CLI's exit code.  The second times a seeded micro case of 1,000
GaussianRational multiply-adds and prints the median in microseconds.

A function is wrapped at every module that bound it by name (for example
`taubuild` imports `solve_coboundary` itself), so calls made from inside
the build are seen as well as calls through the defining module.
Spans live in memory and are reduced when the operation ends.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# span name -> the (module, qualified name) pairs it covers
SPANS = {
    "weyl.resolve_fock_sign": [("dqw.weyl", "resolve_fock_sign")],
    "weyl.exp_laplace_exact": [("dqw.weyl", "exp_laplace_exact")],
    "cobsolver.solve_coboundary": [("dqw.cobsolver", "solve_coboundary")],
    "cobsolver.solve_classical_coboundary":
        [("dqw.cobsolver", "solve_classical_coboundary")],
    "cobsolver.solve_sparse_system": [("dqw.cobsolver", "solve_sparse_system")],
    "cochain.compose_slot": [("dqw.cochain", "compose_slot")],
    "cochain.cochain_weyl_product": [("dqw.cochain", "cochain_weyl_product")],
    "cochain.coboundary": [("dqw.cochain", "coboundary")],
    "taubuild.build_tau": [("dqw.taubuild", "build_tau")],
    "taubuild.compute_Rk": [("dqw.taubuild", "compute_Rk")],
    "taubuild.epsilon_cochain": [("dqw.taubuild", "epsilon_cochain")],
    "taubuild.check_poisson_realization":
        [("dqw.taubuild", "check_poisson_realization")],
    "taubuild.apply": [("dqw.taubuild", "TauMap.apply"),
                       ("dqw.taubuild", "ClosedFormTau.apply")],
    "starspec.generator": [("dqw.starspec", "make_constant_theta_star"),
                           ("dqw.starspec", "make_zero_star"),
                           ("dqw.starspec", "make_linear_poisson_2d_star")],
    "starspec.validate_star": [("dqw.starspec", "validate_star")],
    "starspec.star_apply": [("dqw.starspec", "star_apply")],
    "functionals.check_positivity": [("dqw.functionals", "check_positivity")],
    "functionals.action": [("dqw.functionals", "DeformedFunctional.action"),
                           ("dqw.functionals", "UndeformedExtension.action"),
                           ("dqw.functionals", "GluedFunctional.action")],
    "scenario.load_scenario": [("dqw.scenario", "load_scenario")],
    "scenario.generate_tests": [("dqw.scenario", "generate_tests")],
}

# counter name -> (module, class, operator slots); __rmul__ and __radd__
# are the same function as __mul__ and __add__, and __rsub__ calls __sub__
COUNTERS = {
    "rationals.mul_calls": ("dqw.rationals", "GaussianRational", ("__mul__", "__rmul__")),
    "rationals.add_calls": ("dqw.rationals", "GaussianRational",
                            ("__add__", "__radd__", "__sub__")),
    "qpoly.mul_calls": ("dqw.qpoly", "QPolynomial", ("__mul__",)),
    "welement.mul_calls": ("dqw.welement", "WElement", ("__mul__",)),
}


class Tracer:
    """Spans as [name, start, end, parent index] plus plain counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._seen_searches = set()

    def span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if observe is not None:
                observe(result)
            return result
        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    # ---- readers of return values ----

    def on_sign(self, report):
        # the sign report is memoized per process; count each search once
        if id(report) not in self._seen_searches:
            self._seen_searches.add(id(report))
            self.counts["weyl.sign_basis_size"] += report["basis_size"]

    def on_solve(self, result):
        report = result[1]
        self.counts["cobsolver.direct_cells"] += sum(
            b["rows"] * b["cols"] for b in report.direct_blocks)
        self.counts["cobsolver.escalations"] += max(0, len(report.bounds_tried) - 1)

    def on_build(self, result):
        self.counts["taubuild.stages"] += sum(
            1 for s in result[1].stages if s.solver is not None)

    def on_verdict(self, verdict):
        self.counts["functionals.tests"] += len(verdict.tests)
        self.counts["functionals.inconclusive"] += len(verdict.inconclusive)


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` in every loaded dqw module."""
    for name, module in list(sys.modules.items()):
        if name == "dqw" or name.startswith("dqw."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer):
    import dqw.cli  # noqa: F401  (loads every module that binds a name)

    observers = {
        "weyl.resolve_fock_sign": tracer.on_sign,
        "cobsolver.solve_coboundary": tracer.on_solve,
        "taubuild.build_tau": tracer.on_build,
        "functionals.check_positivity": tracer.on_verdict,
    }
    for span_name, targets in SPANS.items():
        for module_name, qualname in targets:
            module = sys.modules[module_name]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, tracer.span(span_name, vars(cls)[meth]))
            else:
                original = getattr(module, qualname)
                _rebind(original, tracer.span(span_name, original,
                                              observers.get(span_name)))
    for counter_name, (module_name, cls_name, slots) in COUNTERS.items():
        cls = getattr(sys.modules[module_name], cls_name)
        wrapped = {}
        for slot in slots:
            fn = vars(cls)[slot]
            if fn not in wrapped:
                wrapped[fn] = tracer.counter(counter_name, fn)
            setattr(cls, slot, wrapped[fn])


def reduce_spans(spans):
    """Per-name inclusive seconds, self seconds and calls, plus problems.

    Inclusive time counts a span only when no ancestor has the same name,
    so recursion is not counted twice.  Self time is a span's duration
    minus its direct children's.
    """
    problems = []
    child_time = [0.0] * len(spans)
    for idx, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {name} #{idx} did not close")
            continue
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or p_end is None or end > p_end:
                problems.append(f"span {name} #{idx} leaves its parent")
            child_time[parent] += end - start
    incl, self_s, calls = Counter(), Counter(), Counter()
    for idx, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        own = (end - start) - child_time[idx]
        if own < 0:
            problems.append(f"span {name} #{idx} has negative self time")
        self_s[name] += own
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl[name] += end - start
    return {"incl": incl, "self": self_s, "calls": calls, "problems": problems[:10]}


def muladd_micro(seed: int, repeats: int = 21) -> float:
    """Median microseconds of 1,000 seeded GaussianRational multiply-adds."""
    from dqw.rationals import GaussianRational

    rng = random.Random(seed)

    def value():
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    pairs = [(value(), value()) for _ in range(1000)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = GaussianRational(0)
        for a, b in pairs:
            acc = acc + a * b
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def main(argv):
    if argv[0] == "--muladd":
        print(f"{muladd_micro(int(argv[1])):.3f}")
        return 0
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from dqw.cli import main as cli_main
    code = cli_main(cli_args)
    result = reduce_spans(tracer.spans)
    result["counts"] = tracer.counts
    Path(out_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
