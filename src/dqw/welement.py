"""Truncated elements of the formal algebra C[q][[p, lam]] and lam-series.

A WElement stores one scalar per key (lam-power a, p-exponent I,
q-exponent E): the coefficient of lam^a p^I q^E.  Elements are graded by
the combined degree deg = a + |I| (the eigenvalue of the grading
operator sum_i p_i d/dp_i + lam d/dlam), and every element carries a
truncation order K: only terms with a + |I| <= K are tracked.  The
q-degree is never truncated.

Also provided here:

* LambdaPoly, a polynomial lam-series over the base coordinates only,
  i.e. an element of C[q][[lam]] truncated at lam^K, stored the same
  way: one scalar per key (lam-power r, q-exponent E);
* NonRealSeries, raised for a series that should be real.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .qpoly import group_terms
from .rationals import GaussianRational, _coerce
from .terms import (DimensionMismatch, GradedTermMap, TermMap, accumulate, add, falling,
                    shift, sub, zeros)


class WElement(GradedTermMap):
    __slots__ = ("n", "K")
    _SHAPE = ("n", "K")

    def __init__(self, n: int, K: int, terms: Mapping | None = None):
        """terms maps (a, I, E) to the coefficient of lam^a p^I q^E."""
        if n < 1:
            raise ValueError("dimension must be positive")
        if K < 0:
            raise ValueError("truncation order must be non-negative")
        clean: dict = {}
        for (a, idx, exp), c in (terms or {}).items():
            if len(idx) != n or len(exp) != n:
                raise DimensionMismatch("exponent has wrong length")
            if a < 0:
                raise ValueError("negative lam-power")
            if a + sum(idx) <= K:
                accumulate(clean, (a, tuple(idx), tuple(exp)), _coerce(c))
        self._init((n, K), clean)

    # ---- commutative product ----

    def __mul__(self, other) -> "WElement":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        K = self.K
        for (a1, i1, e1), c1 in self.terms.items():
            d1 = a1 + sum(i1)
            for (a2, i2, e2), c2 in other.terms.items():
                if d1 + a2 + sum(i2) <= K:
                    accumulate(out, (a1 + a2, add(i1, i2), add(e1, e2)), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    # ---- derivations and grading ----

    def diff_q(self, k: int) -> "WElement":
        if not 0 <= k < self.n:
            raise IndexError(f"coordinate index {k} out of range")
        return self._new({(a, idx, shift(exp, k, -1)): c * exp[k]
                          for (a, idx, exp), c in self.terms.items() if exp[k]})

    def diff_p(self, k: int) -> "WElement":
        if not 0 <= k < self.n:
            raise IndexError(f"momentum index {k} out of range")
        return self._new({(a, shift(idx, k, -1), exp): c * idx[k]
                          for (a, idx, exp), c in self.terms.items() if idx[k]})

    # ---- structure ----

    def __repr__(self):
        return f"WElement(n={self.n}, K={self.K}, {len(self.terms)} terms)"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, idx), poly in group_terms(self.terms, self.n).items():
            factors = []
            if a:
                factors.append("lam" + (f"^{a}" if a > 1 else ""))
            for i, e in enumerate(idx):
                if e:
                    factors.append(f"p{i+1}" + (f"^{e}" if e > 1 else ""))
            head = "*".join(factors)
            body = f"[{poly}]"
            parts.append(f"{head}*{body}" if head else body)
        return " + ".join(parts)


class LambdaPoly(TermMap):
    """A polynomial lam-series over the base coordinates, truncated at lam^K.

    Terms map (r, E) to the coefficient of lam^r q^E, for r <= K.  This
    is a plain term map, not a graded one: its keys hold no p-exponent.
    """

    __slots__ = ("n", "K")
    _SHAPE = ("n", "K")

    def __init__(self, n: int, K: int, terms: Mapping | None = None):
        """terms maps (r, E) to the coefficient of lam^r q^E."""
        clean: dict = {}
        for (r, exp), c in (terms or {}).items():
            if r < 0:
                raise ValueError("negative lam-power")
            if len(exp) != n:
                raise DimensionMismatch("exponent has wrong length")
            if r <= K:
                accumulate(clean, (r, tuple(exp)), _coerce(c))
        self._init((n, K), clean)

    @classmethod
    def constant(cls, n: int, K: int, c) -> "LambdaPoly":
        return cls(n, K, {(0, zeros(n)): c})

    def __mul__(self, other) -> "LambdaPoly":
        """Pointwise (undeformed) product, truncated at lam^K."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        K = self.K
        for (r1, e1), c1 in self.terms.items():
            for (r2, e2), c2 in other.terms.items():
                if r1 + r2 <= K:
                    accumulate(out, (r1 + r2, add(e1, e2)), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    def derivative(self, j: tuple) -> "LambdaPoly":
        """The partial derivative D^j of every lam-coefficient, in one pass."""
        out = {}
        for (r, exp), c in self.terms.items():
            w = falling(exp, j)
            if w:
                out[(r, sub(exp, j))] = c * w
        return self._new(out)

    def __repr__(self):
        return f"LambdaPoly(n={self.n}, K={self.K}, {len(self.terms)} terms)"

    def __str__(self):
        """A lam-free series prints as its polynomial, the others as
        sum_r lam^r*(coefficient)."""
        grouped = group_terms(self.terms, self.n)
        if not any(r for (r,) in grouped):
            return str(grouped.get((0,), "0"))
        return " + ".join(("" if r == 0 else ("lam" if r == 1 else f"lam^{r}") + "*")
                          + f"({poly})" for (r,), poly in grouped.items())


class NonRealSeries(ValueError):
    """A series that should be real carries an imaginary part."""
