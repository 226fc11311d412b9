"""Forms in the momentum differentials dp_i with polynomial-in-(q, p)
coefficients and the axial potential of a closed 2-form.

A degree-k form is a sum of terms c * p^I * q^E * dp_{i_1} ^ ... ^ dp_{i_k}
with i_1 < ... < i_k, stored as the scalar c under the key
(I, (i_1, .., i_k), E); antisymmetry is structural (index sets are kept
sorted, signs normalized away).  The exterior derivative d_p acts in the
p variables only.  The coboundary solver inverts d_p on closed 2-forms
in the axial gauge, whose potentials have far fewer terms than those of
the weighted Euler-contraction homotopy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .qpoly import DimensionMismatch, expand_terms
from .rationals import _coerce
from .terms import TermMap, accumulate, shift


class KoszulForm(TermMap):
    __slots__ = ("n", "degree")
    _SHAPE = ("n", "degree")

    def __init__(self, n: int, degree: int, terms: Mapping | None = None):
        """terms maps (I, sel, E) to a scalar, or (I, sel) to a QPolynomial
        that stands for its monomials (`expand_terms`)."""
        if degree < 0:
            raise ValueError("form degree must be non-negative")
        if degree > n and terms:
            raise ValueError(f"nonzero form of degree {degree} impossible for n={n}")
        clean: dict = {}
        for (idx, sel, exp), c in expand_terms(terms or {}):
            sel = tuple(sel)
            if len(sel) != degree or list(sel) != sorted(set(sel)):
                raise ValueError(f"index set {sel} must be strictly increasing")
            if any(not 0 <= i < n for i in sel) or len(idx) != n or len(exp) != n:
                raise DimensionMismatch("bad index data")
            accumulate(clean, (tuple(idx), sel, tuple(exp)), _coerce(c))
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
    for (idx, sel, exp), c in omega.terms.items():
        for j in range(n):
            if not idx[j] or j in sel:
                continue
            pos = sum(1 for i in sel if i < j)
            sign = -1 if pos % 2 else 1
            newsel = tuple(sorted(sel + (j,)))
            accumulate(out, (shift(idx, j, -1), newsel, exp), c * (sign * idx[j]))
    return KoszulForm._trusted((n, omega.degree + 1), out)


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
        for (idx, (k, l), exp), c in rest.terms.items():
            if l == m:
                accumulate(step, (shift(idx, m, 1), (k,), exp), c * Fraction(-1, idx[m] + 1))
        y = KoszulForm._trusted((n, 1), step)
        potential = potential + y
        rest = rest - d_p(y)
    if not rest.is_zero():
        raise ValueError("form is not closed: no potential exists")
    return potential
