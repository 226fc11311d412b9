"""Forms in the momentum differentials dp_i with polynomial-in-(q, p)
coefficients, the Euler-contraction homotopy and the axial potential of
a closed 2-form.

A degree-k form is a sum of terms c(q) * p^I * dp_{i_1} ^ ... ^ dp_{i_k}
with i_1 < ... < i_k; antisymmetry is structural (index sets are kept
sorted, signs normalized away).  The exterior derivative d_p acts in the
p variables only.  Contraction with the Euler field sum_i p_i d/dp_i,
weighted by 1 / (p-weight + form degree), gives a homotopy h with
d_p h + h d_p = id on every form of degree >= 1.  The coboundary solver
uses the axial gauge instead, whose potentials have far fewer terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .qpoly import DimensionMismatch
from .terms import TermMap, accumulate


class KoszulForm(TermMap):
    __slots__ = ("n", "degree")
    _SHAPE = ("n", "degree")

    def __init__(self, n: int, degree: int, terms: Mapping | None = None):
        if degree < 0:
            raise ValueError("form degree must be non-negative")
        if degree > n and terms:
            raise ValueError(f"nonzero form of degree {degree} impossible for n={n}")
        clean = {}
        if terms:
            for (idx, sel), poly in terms.items():
                sel = tuple(sel)
                if len(sel) != degree or list(sel) != sorted(set(sel)):
                    raise ValueError(f"index set {sel} must be strictly increasing")
                if any(not 0 <= i < n for i in sel) or len(idx) != n:
                    raise DimensionMismatch("bad index data")
                if poly:
                    clean[(tuple(idx), sel)] = poly
        self._init((n, degree), clean)

    @classmethod
    def zero(cls, n: int, degree: int) -> "KoszulForm":
        return cls(n, degree)

    def __repr__(self):
        return f"KoszulForm(n={self.n}, degree={self.degree}, {len(self.terms)} terms)"


def d_p(omega: KoszulForm) -> KoszulForm:
    """Exterior derivative in the p variables."""
    n = omega.n
    out: dict = {}
    for (idx, sel), poly in omega.terms.items():
        for j in range(n):
            if not idx[j] or j in sel:
                continue
            e = list(idx)
            e[j] -= 1
            pos = sum(1 for i in sel if i < j)
            sign = -1 if pos % 2 else 1
            newsel = tuple(sorted(sel + (j,)))
            accumulate(out, (tuple(e), newsel), poly.scale(Fraction(sign * idx[j])))
    return KoszulForm(n, omega.degree + 1, out)


def euler_contraction(omega: KoszulForm) -> KoszulForm:
    """Interior product with the Euler field sum_i p_i d/dp_i."""
    out: dict = {}
    for (idx, sel), poly in omega.terms.items():
        for m, i in enumerate(sel):
            sign = -1 if m % 2 else 1
            e = list(idx)
            e[i] += 1
            accumulate(out, (tuple(e), sel[:m] + sel[m + 1:]), poly.scale(Fraction(sign)))
    return KoszulForm(omega.n, omega.degree - 1, out)


def poincare_homotopy(omega: KoszulForm) -> KoszulForm:
    """The weighted Euler contraction h with d_p h + h d_p = id for
    forms of degree >= 1.  Acts termwise on p-homogeneous pieces with
    weight 1 / (|I| + k)."""
    if omega.degree < 1:
        raise ValueError("homotopy requires form degree >= 1")
    k = omega.degree
    out = KoszulForm.zero(omega.n, k - 1)
    for (idx, sel), poly in omega.terms.items():
        piece = KoszulForm(omega.n, k, {(idx, sel): poly})
        w = sum(idx) + k
        contracted = euler_contraction(piece)
        out = out + contracted.scale(Fraction(1, w))
    return out


def axial_potential(omega: KoszulForm) -> KoszulForm:
    """A 1-form X with d_p X = omega for a closed 2-form omega, in the
    axial gauge: X has no dp_{n-1} component.

    Peels the momenta off from the last index m = n-1 down: with
    Y_k = -int_0^{p_m} omega_km dp_m for each k < m (termwise
    p^I -> p^(I + e_m) / (I_m + 1)), omega - d_p(sum_k Y_k dp_k) no longer
    involves dp_m, and the recursion goes on with the remaining indices.
    Raises ValueError when something is left at the end: omega was not
    closed.
    """
    if omega.degree != 2:
        raise ValueError("axial potential requires a 2-form")
    n = omega.n
    rest = omega
    potential = KoszulForm.zero(n, 1)
    for m in range(n - 1, 0, -1):
        step: dict = {}
        for (idx, (k, l)), poly in rest.terms.items():
            if l == m:
                raised = idx[:m] + (idx[m] + 1,) + idx[m + 1:]
                accumulate(step, (raised, (k,)), poly.scale(Fraction(-1, idx[m] + 1)))
        y = KoszulForm(n, 1, step)
        potential = potential + y
        rest = rest - d_p(y)
    if not rest.is_zero():
        raise ValueError("form is not closed: no potential exists")
    return potential
