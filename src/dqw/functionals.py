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
a 1 x 1 matrix.  A run squares its tests once (`star_squares`) and
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

from collections import namedtuple
from fractions import Fraction

from .qpoly import DimensionMismatch
from .rationals import GaussianRational, ZERO, _coerce
from .starspec import StarProductSpec, star_apply
from .terms import SquareMatrix
from .welement import LambdaPoly, NonRealSeries, SeriesSign
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

    __slots__ = ("n", "N", "atoms")

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

    def __setattr__(self, name, value):
        raise AttributeError("StateFunctional is immutable")

    def eval_matrix_series(self, entries, K: int) -> tuple:
        """sum_a v_a* M(x_a) v_a for a matrix of LambdaPoly entries.

        Returns the tuple of lam-coefficients, length K + 1.
        """
        out = [ZERO] * (K + 1)
        for point, vector in self.atoms:
            for i in range(self.N):
                vi = vector[i].conjugate()
                if not vi:
                    continue
                for j in range(self.N):
                    vj = vector[j]
                    if not vj:
                        continue
                    series = entries[i][j].evaluate(point)
                    w = vi * vj
                    for r in range(min(K, entries[i][j].K) + 1):
                        c = series[r]
                        if c:
                            out[r] = out[r] + c * w
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, StateFunctional):
            return NotImplemented
        return (self.n, self.N, self.atoms) == (other.n, other.N, other.atoms)

    def __repr__(self):
        return f"StateFunctional(n={self.n}, N={self.N}, {len(self.atoms)} atoms)"


# ---------------------------------------------------------------------------
# lam-linear (undeformed) extension
# ---------------------------------------------------------------------------

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

    def action(self, m: MatrixLambdaPoly) -> tuple:
        if m.N != self.base.N or m.n != self.base.n:
            raise DimensionMismatch("test element has wrong shape")
        return self.base.eval_matrix_series(m.entries, self.K)

    def describe(self) -> dict:
        return {"kind": "undeformed", "K": self.K}


# ---------------------------------------------------------------------------
# the deformation pipeline
# ---------------------------------------------------------------------------

class DeformedFunctional:
    """Quantum corrections of an atomic functional along an embedding."""

    __slots__ = ("base", "tau", "K", "sigma")

    def __init__(self, base: StateFunctional, tau, K: int):
        sigma = resolve_fock_sign()["sigma"]
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "sigma", sigma)

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

    def _push_entry(self, f: LambdaPoly) -> LambdaPoly:
        return exp_laplace_exact(self.tau.apply(f), -self.sigma, self.sound_order)

    def action(self, m: MatrixLambdaPoly) -> tuple:
        if m.N != self.base.N or m.n != self.base.n:
            raise DimensionMismatch("test element has wrong shape")
        pushed = [[self._push_entry(x) for x in row] for row in m.entries]
        return self.base.eval_matrix_series(pushed, self.sound_order)

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

class TestVerdict(namedtuple("TestVerdict", "label coefficients classification")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "coefficients": self.coefficients,
            "classification": self.classification.value,
        }


class PositivityVerdict:
    __slots__ = ("functional", "tests")

    def __init__(self, functional: dict):
        self.functional = functional
        self.tests = []

    @property
    def negatives(self):
        return [t for t in self.tests if t.classification == SeriesSign.NEGATIVE]

    @property
    def inconclusive(self):
        return [t for t in self.tests if t.classification == SeriesSign.ZERO_UP_TO_K]

    @property
    def aggregate(self) -> str:
        if self.negatives:
            return "fail"
        if self.tests and all(
            t.classification == SeriesSign.ZERO_UP_TO_K for t in self.tests
        ):
            return "inconclusive"
        return "pass"

    def to_json(self) -> dict:
        return {
            "functional": self.functional,
            "aggregate": self.aggregate,
            "tests": [t.to_json() for t in self.tests],
            "inconclusive_tests": [t.label for t in self.inconclusive],
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
        sign = (SeriesSign.ZERO_UP_TO_K if not nonzero else
                SeriesSign.POSITIVE if series[nonzero[0]].re > 0 else SeriesSign.NEGATIVE)
        top = nonzero[-1] if nonzero else 0
        verdict.tests.append(TestVerdict(label, [str(c.re) for c in series[:top + 1]], sign))
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

