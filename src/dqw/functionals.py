"""Positive functionals, their deformation along the embedding, and the
positivity verdicts of a run.

The classical functionals are finite positive atomic measures with
matrix compression: Omega_0(A) = sum_a v_a* A(x_a) v_a for rational
points x_a and vectors v_a.  These are exactly representable, positive
on squares by construction, and include the point-evaluation functional
that witnesses failure of naive positivity.

The deformed functional is the composite

    f  ->  Omega_0( U_0( tau(f) ) ),

where tau is the multiplicative embedding and U_0 is the zero-momentum
part of the inverse of the runtime-certified operator carrying the
z/zbar-pairing product to the q/p-pairing product; `exp_laplace_exact`
gives it in closed form per monomial, through the sound order below.
Positivity of each value then reduces to the
positivity of atomic functionals for the z/zbar product, which holds
coefficientwise (the Wick certificate in `tests/oracles.py` exhibits
it).

Every functional acts on a `MatrixLambdaPoly`; a scalar test element is
a 1 x 1 matrix.  Both are C[[lam]]-linear, so each is a table of its
moments omega(q^e), filled on first use, and one `_action` sums them
over the terms of every entry (`tests/oracles.py` keeps the per-entry
route as the reference).  A run squares its tests once (`star_squares`) and
classifies omega(f~ * f) of each (`check_positivity`): the series must
be real, and its sign in the ordered ring R[[lam]] is that of its first
nonzero coefficient.

Truncation honesty: U contracts two momentum degrees into one
lam-power, so the unknown components of tau above its order tau.K can
reach every lam-order above floor(tau.K/2) of the final series.  Series
are therefore reported only through their sound order
min(K, floor(tau.K/2)): K for the substitution map built to order 2K,
floor(K/2) for a stage-built map of order K.  All-zero reported series
classify as inconclusive, never as positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .rationals import GaussianRational, ZERO, _coerce
from .starspec import StarProductSpec, star_apply
from .terms import DimensionMismatch, SquareMatrix
from .welement import LambdaPoly, NonRealSeries
from .weyl import exp_laplace_exact, resolve_fock_sign


class PartitionError(ValueError):
    """The quadratic partition identity fails at the working order."""


# ---------------------------------------------------------------------------
# matrix-valued base lam-series
# ---------------------------------------------------------------------------

class MatrixLambdaPoly(SquareMatrix):
    """A square matrix of base lam-series: a test element, with the
    matrix amplifications of positivity tests as its larger sizes."""

    __slots__ = ()
    _ENTRY = LambdaPoly

    def star_mul(self, spec: StarProductSpec, other: "MatrixLambdaPoly") -> "MatrixLambdaPoly":
        return self._product(other, lambda x, y: star_apply(spec, x, y))


# ---------------------------------------------------------------------------
# classical atomic functionals
# ---------------------------------------------------------------------------

class StateFunctional:
    """A finite positive combination of matrix-compressed point
    evaluations: A -> sum_a v_a* A(x_a) v_a."""

    __slots__ = ("n", "N", "atoms", "_moments")

    def __init__(self, n: int, N: int, atoms):
        normalized = []
        for point, vector in atoms:
            point = tuple(Fraction(x) for x in point)
            vector = tuple(
                v if isinstance(v, GaussianRational) else _coerce(v) for v in vector
            )
            if len(point) != n:
                raise DimensionMismatch("atom point has wrong dimension")
            if len(vector) != N:
                raise DimensionMismatch("atom vector has wrong size")
            normalized.append((point, vector))
        normalized.sort(key=lambda a: (a[0], tuple((v.re, v.im) for v in a[1])))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "atoms", tuple(normalized))
        object.__setattr__(self, "_moments", {})

    def __setattr__(self, name, value):
        raise AttributeError("StateFunctional is immutable")

    def moment(self, e: tuple) -> tuple:
        """Omega_0(q^e) = sum_a x_a^e conj(v_ai) v_aj, filled on first use."""
        table = self._moments.get(e)
        if table is None:
            weighted = [(prod(xk ** k for xk, k in zip(point, e)), v) for point, v in self.atoms]
            table = self._moments[e] = tuple(
                tuple(sum((v[i].conjugate() * v[j] * x for x, v in weighted), ZERO)
                      for j in range(self.N)) for i in range(self.N))
        return table

    def __eq__(self, other):
        if not isinstance(other, StateFunctional):
            return NotImplemented
        return (self.n, self.N, self.atoms) == (other.n, other.N, other.atoms)

    def __repr__(self):
        return f"StateFunctional(n={self.n}, N={self.N}, {len(self.atoms)} atoms)"


# ---------------------------------------------------------------------------
# lam-linear (undeformed) extension
# ---------------------------------------------------------------------------

def _action(self, m: MatrixLambdaPoly) -> tuple:
    """omega(m) through the sound order L by linearity: lam^r c omega(q^e)[i][j]
    summed over the terms c lam^r q^e (r <= L) of each entry (i, j) of m."""
    if m.N != self.base.N or m.n != self.base.n:
        raise DimensionMismatch("test element has wrong shape")
    L = self.sound_order
    out = [ZERO] * (L + 1)
    for i, row in enumerate(m.entries):
        for j, f in enumerate(row):
            for (r, e), c in f.terms.items():
                for k, x in zip(range(r, L + 1), self.moment(e)[i][j]):
                    if x:
                        out[k] = out[k] + c * x
    return tuple(out)


class UndeformedExtension:
    """The plain lam-linear extension of an atomic functional; positive
    classically but in general not positive for a deformed product."""

    __slots__ = ("base", "K")

    def __init__(self, base: StateFunctional, K: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "K", K)

    def __setattr__(self, name, value):
        raise AttributeError("UndeformedExtension is immutable")

    @property
    def sound_order(self):
        return self.K

    def moment(self, e: tuple) -> tuple:
        """The base moment, each entry as a constant lam-series."""
        return tuple(tuple((x,) for x in row) for row in self.base.moment(e))

    # in each class's own dict: perfbench/tracer.py wraps vars(cls)["action"]
    action = _action

    def describe(self) -> dict:
        return {"kind": "undeformed", "K": self.K}


# ---------------------------------------------------------------------------
# the deformation pipeline
# ---------------------------------------------------------------------------

class DeformedFunctional:
    """Quantum corrections of an atomic functional along an embedding."""

    __slots__ = ("base", "tau", "K", "sigma", "_moments")

    def __init__(self, base: StateFunctional, tau, K: int):
        sigma = resolve_fock_sign()["sigma"]
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_moments", {})

    def __setattr__(self, name, value):
        raise AttributeError("DeformedFunctional is immutable")

    @property
    def sound_order(self) -> int:
        """Highest lam-order of the output that is exact.

        The inverse equivalence operator consumes two momentum degrees
        per lam-power, so the unknown embedding components of degree
        > tau.K can only reach lam-orders above floor(tau.K/2).
        """
        return min(self.K, self.tau.K // 2)

    def moment(self, e: tuple) -> tuple:
        """omega(q^e) = Omega_0(U_0(tau(q^e))) as the N x N matrix of its
        lam-series through the sound order L, filled on first use: c lam^s
        Omega_0(q^f) summed over the terms of exp_laplace_exact(tau(q^e)).

        This equals pushing whole entries: on a term c lam^r q^e,
        `TauMap.apply` keeps only the terms of tau(q^e) of combined degree
        d <= tau.K - r, and one with d > tau.K - r reaches lam-order
        r + d/2 > tau.K/2 >= L after U_0 and the shift by lam^r, so
        `_action`'s truncation at L drops it here too."""
        table = self._moments.get(e)
        if table is None:
            L, N = self.sound_order, self.base.N
            table = [[[ZERO] * (L + 1) for _ in range(N)] for _ in range(N)]
            q_e = LambdaPoly(self.base.n, 0, {(0, e): 1})
            for (s, f), c in exp_laplace_exact(self.tau.apply(q_e), -self.sigma, L).terms.items():
                for row, base_row in zip(table, self.base.moment(f)):
                    for series, x in zip(row, base_row):
                        if x:
                            series[s] = series[s] + c * x
            table = self._moments[e] = tuple(tuple(map(tuple, row)) for row in table)
        return table

    # see UndeformedExtension.action
    action = _action

    def describe(self) -> dict:
        return {
            "kind": "deformed",
            "K": self.K,
            "sigma": self.sigma,
            "sound_order": self.sound_order,
        }


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class PositivityVerdict:
    """The verdict of one check-pos: per test {"label", "coefficients",
    "classification"}, the classification "positive", "negative" or
    "zero_up_to_K"."""

    __slots__ = ("functional", "tests")

    def __init__(self, functional: dict):
        self.functional = functional
        self.tests = []

    @property
    def negatives(self):
        return [t for t in self.tests if t["classification"] == "negative"]

    @property
    def inconclusive(self):
        return [t for t in self.tests if t["classification"] == "zero_up_to_K"]

    @property
    def aggregate(self) -> str:
        if self.negatives:
            return "fail"
        # an empty test set checks nothing, so it is inconclusive too
        if len(self.inconclusive) == len(self.tests):
            return "inconclusive"
        return "pass"

    def to_json(self) -> dict:
        return {
            "functional": self.functional,
            "aggregate": self.aggregate,
            "tests": self.tests,
            "inconclusive_tests": [t["label"] for t in self.inconclusive],
        }


def star_squares(spec: StarProductSpec, tests) -> list:
    """f~ * f, as a matrix, for every test element f.  A run squares its
    test set once and every check-pos reads the same squares."""
    squares = []
    for m in tests:
        squares.append(m.involution().star_mul(spec, m))
    return squares


def check_positivity(functional, squares, labels) -> PositivityVerdict:
    """Evaluate omega(f~ * f) for every square from `star_squares`.  Each
    series must be real; it is classified by its first nonzero
    coefficient and reported through its last nonzero one."""
    verdict = PositivityVerdict(functional.describe())
    for label, g in zip(labels, squares, strict=True):
        series = functional.action(g)
        for r, c in enumerate(series):
            if c.im:
                raise NonRealSeries(f"omega(f~ * f) for {label}: lam^{r} coefficient "
                                    f"has nonzero imaginary part {c.im}")
        nonzero = [r for r, c in enumerate(series) if c]
        sign = ("zero_up_to_K" if not nonzero else
                "positive" if series[nonzero[0]].re > 0 else "negative")
        top = nonzero[-1] if nonzero else 0
        verdict.tests.append({"label": label, "classification": sign,
                              "coefficients": [str(c.re) for c in series[:top + 1]]})
    return verdict


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

class GluedFunctional:
    """f -> sum_a omega_a(conj(chi_a) * f * chi_a) for weights with
    sum_a conj(chi_a) * chi_a = 1, verified symbolically on entry.
    No scenario runs it: with polynomial weights on flat space only
    constants satisfy the identity, and then the glued functional is the
    base one.  It stays for the gluing tests and because
    perfbench/tracer.py wraps `GluedFunctional.action` by name."""

    __slots__ = ("parts", "spec", "K")

    def __init__(self, parts, spec: StarProductSpec):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        K = parts[0][0].K
        n = spec.n
        total = LambdaPoly(n, K)
        for chi, _omega in parts:
            total = total + star_apply(spec, chi.conjugate(), chi)
        if total != LambdaPoly.constant(n, K, 1):
            raise PartitionError(
                f"quadratic partition identity fails: sum = {total}"
            )
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "K", K)

    def __setattr__(self, name, value):
        raise AttributeError("GluedFunctional is immutable")

    @property
    def sound_order(self):
        return min(om.sound_order for _chi, om in self.parts)

    def action(self, m: MatrixLambdaPoly) -> tuple:
        L = self.sound_order
        out = [ZERO] * (L + 1)
        for chi, omega in self.parts:
            chibar = chi.conjugate()
            conj_rows = [[star_apply(self.spec, chibar, x) for x in row]
                         for row in m.entries]
            shifted = MatrixLambdaPoly(
                [[star_apply(self.spec, x, chi) for x in row] for row in conj_rows]
            )
            part = omega.action(shifted)
            for r in range(min(L, len(part) - 1) + 1):
                out[r] = out[r] + part[r]
        return tuple(out)

    def describe(self) -> dict:
        return {"kind": "glued", "parts": len(self.parts),
                "sound_order": self.sound_order}

