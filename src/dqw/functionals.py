"""Positive functionals and their deformation along the embedding.

The implemented classical functionals are finite positive atomic
measures with matrix compression: Omega_0(A) = sum_a v_a* A(x_a) v_a for
rational points x_a and vectors v_a.  These are exactly representable,
positive on squares by construction, and include the point-evaluation
functional that witnesses failure of naive positivity.

The quantum-corrected functional is the composite

    f  ->  Omega_0( at p = 0 )( U( tau(f) ) ),

where tau is the multiplicative embedding and U is the inverse of the
runtime-verified operator carrying the z/zbar-pairing product to the
q/p-pairing product.  Positivity of each value then reduces to the
automatic positivity of atomic functionals for the z/zbar product.

Truncation honesty: U contracts two momentum degrees into one
lam-power, so the unknown components of tau above its order tau.K can
reach every lam-order above floor(tau.K/2) of the final series.  Series
are therefore reported only through their sound order
min(K, floor(tau.K/2)): K for the substitution map built to order 2K,
floor(K/2) for a stage-built map of order K.  All-zero reported series
classify as inconclusive, never as positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qpoly import DimensionMismatch
from .rationals import GaussianRational, ZERO, _coerce, parse_scalar
from .starspec import StarProductSpec, star_apply
from .terms import SquareMatrix, factorial, shift, zeros
from .welement import LambdaPoly, NonRealSeries, SeriesSign, real_series_from_complex
from .weyl import (MatrixWElement, exp_laplace_exact, iota_star,
                   resolve_fock_sign, wick_product)


class PartitionError(ValueError):
    """The quadratic partition identity fails at the working order."""


# ---------------------------------------------------------------------------
# matrix-valued base lam-series
# ---------------------------------------------------------------------------

class MatrixLambdaPoly(SquareMatrix):
    """A square matrix of base lam-series.  Used for the matrix
    amplifications of positivity tests."""

    __slots__ = ()
    _ENTRY = LambdaPoly

    def star_mul(self, spec: StarProductSpec, other: "MatrixLambdaPoly") -> "MatrixLambdaPoly":
        return self._product(other, lambda x, y: star_apply(spec, x, y))

    @classmethod
    def from_json(cls, data: dict) -> "MatrixLambdaPoly":
        return cls([[LambdaPoly.from_json(x) for x in row] for row in data["entries"]])


def as_matrix(f) -> MatrixLambdaPoly:
    return f if isinstance(f, MatrixLambdaPoly) else MatrixLambdaPoly.scalar(f)


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

    def mass(self) -> Fraction:
        """Value on the identity: sum of squared vector norms."""
        total = Fraction(0)
        for _pt, v in self.atoms:
            for x in v:
                total += x.re * x.re + x.im * x.im
        return total

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

    @classmethod
    def from_json(cls, data: dict) -> "StateFunctional":
        atoms = [
            ([Fraction(x) for x in a["point"]],
             [parse_scalar(v) for v in a["vector"]])
            for a in data["atoms"]
        ]
        return cls(data["n"], data["N"], atoms)


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
    def n(self):
        return self.base.n

    @property
    def N(self):
        return self.base.N

    @property
    def sound_order(self):
        return self.K

    def action(self, f) -> tuple:
        m = as_matrix(f)
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
    def n(self):
        return self.base.n

    @property
    def N(self):
        return self.base.N

    @property
    def sound_order(self) -> int:
        """Highest lam-order of the output that is exact.

        The inverse equivalence operator consumes two momentum degrees
        per lam-power, so the unknown embedding components of degree
        > tau.K can only reach lam-orders above floor(tau.K/2).
        """
        return min(self.K, self.tau.K // 2)

    def _push_entry(self, f: LambdaPoly) -> LambdaPoly:
        w = self.tau.apply(f)
        u = exp_laplace_exact(w, -self.sigma)
        return iota_star(u)

    def action(self, f) -> tuple:
        m = as_matrix(f)
        if m.N != self.base.N or m.n != self.base.n:
            raise DimensionMismatch("test element has wrong shape")
        pushed = [[self._push_entry(x) for x in row] for row in m.entries]
        full = self.base.eval_matrix_series(pushed, self.K)
        L = self.sound_order
        return full[: L + 1]

    def describe(self) -> dict:
        return {
            "kind": "deformed",
            "K": self.K,
            "sigma": self.sigma,
            "equivalence_direction": f"exp({-self.sigma:+d} lam Lap)",
            "tau_tail_exact": self.tau.K > self.K,
            "sound_order": self.sound_order,
        }


def deform_functional(base: StateFunctional, tau, K: int | None = None) -> DeformedFunctional:
    return DeformedFunctional(base, tau, tau.K if K is None else K)


# ---------------------------------------------------------------------------
# automatic positivity certificate for the z/zbar product
# ---------------------------------------------------------------------------

@dataclass
class WickCertificate:
    coefficients: list            # RealLambdaSeries-style Fractions per lam-power
    entries: list                 # decomposition entries per lam-power
    all_nonnegative: bool


def wick_positivity_certificate(state: StateFunctional, A: MatrixWElement) -> WickCertificate:
    """Certify Omega_0(A~ . A) >= 0 coefficientwise for the z/zbar
    product, for lam-free A, by exhibiting each lam^r coefficient as
    (2^r / M!) sums of squared moduli of zbar-derivative evaluations.
    """
    if A.N != state.N or A.n != state.n:
        raise DimensionMismatch("matrix element has wrong shape")
    for row in A.entries:
        for x in row:
            for (a, _i) in x.terms:
                if a:
                    raise ValueError("certificate requires a lam-free matrix element")
    K = A.K
    n = A.n

    def dzbar(m: MatrixWElement, k: int) -> MatrixWElement:
        half = Fraction(1, 2)
        return m.map_entries(
            lambda x: x.diff_q(k).scale(half) + x.diff_p(k).scale(GaussianRational(0, half))
        )

    # value = Omega_0( (A~ . A) at p=0 ), computed independently
    prod = wick_product(A.involution(), A)
    pushed = [[iota_star(x) for x in row] for row in prod.entries]
    value = state.eval_matrix_series(pushed, K)
    for r, c in enumerate(value):
        if c.im:
            raise NonRealSeries(f"lam^{r} coefficient is not real: {c}")

    # decomposition: level r collects all zbar-derivative multi-indices
    coefficients = [Fraction(0)] * (K + 1)
    entries = []
    level = {zeros(n): A}
    for r in range(K + 1):
        for M, dA in sorted(level.items()):
            factor = Fraction(2 ** r, factorial(M))
            at_zero = [[iota_star(x) for x in row] for row in dA.entries]
            for ai, (point, vector) in enumerate(state.atoms):
                norm_sq = Fraction(0)
                for i in range(state.N):
                    w = ZERO
                    for j in range(state.N):
                        series = at_zero[i][j].evaluate(point)
                        w = w + series[0] * vector[j]
                    norm_sq += w.re * w.re + w.im * w.im
                if norm_sq:
                    coefficients[r] += factor * norm_sq
                    entries.append({
                        "lambda_power": r,
                        "atom": ai,
                        "multi_index": list(M),
                        "factor": str(factor),
                        "norm_sq": str(norm_sq),
                    })
        # next derivative level
        nxt: dict = {}
        for M, dA in level.items():
            for k in range(n):
                key = shift(M, k, 1)
                if key not in nxt:
                    nxt[key] = dzbar(dA, k)
        level = {k: v for k, v in nxt.items() if not v.is_zero()}
        if not level:
            break

    for r in range(K + 1):
        if coefficients[r] != value[r].re:
            raise NonRealSeries(
                f"certificate reconstruction mismatch at lam^{r}: "
                f"{coefficients[r]} vs {value[r].re}"
            )
    return WickCertificate(
        coefficients=coefficients,
        entries=entries,
        all_nonnegative=all(c >= 0 for c in coefficients),
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class TestVerdict:
    label: str
    coefficients: list
    classification: SeriesSign
    sound_order: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "coefficients": self.coefficients,
            "classification": self.classification.value,
            "sound_order": self.sound_order,
        }


@dataclass
class PositivityVerdict:
    tests: list = field(default_factory=list)
    functional: dict = field(default_factory=dict)

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


def check_positivity(functional, spec: StarProductSpec, tests,
                     labels=None) -> PositivityVerdict:
    """Evaluate omega(f~ * f) for every test element and classify the
    resulting real lam-series by its leading coefficient."""
    verdict = PositivityVerdict(functional=functional.describe())
    for idx, f in enumerate(tests):
        label = labels[idx] if labels else f"test_{idx}"
        m = as_matrix(f)
        g = m.involution().star_mul(spec, m)
        raw = functional.action(g)
        series = real_series_from_complex(raw, context=f"omega(f~ * f) for {label}")
        verdict.tests.append(TestVerdict(
            label=label,
            coefficients=series.trimmed_strings(),
            classification=series.sign(),
            sound_order=len(raw) - 1,
        ))
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
        total = LambdaPoly.zero(n, K)
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
    def n(self):
        return self.spec.n

    @property
    def N(self):
        return self.parts[0][1].N

    @property
    def sound_order(self):
        return min(om.sound_order for _chi, om in self.parts)

    def action(self, f) -> tuple:
        m = as_matrix(f)
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

