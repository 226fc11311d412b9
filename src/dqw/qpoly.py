"""Sparse multivariate polynomials in the base coordinates q^1..q^n.

Terms are stored as a mapping from exponent multi-indices (tuples of
non-negative ints, one slot per coordinate) to nonzero GaussianRational
coefficients.  The representation is canonical: equal polynomials have
identical term mappings, and zero coefficients are never stored.

No kernel computes with polynomials: the containers (elements,
lam-series, cochains) store flat scalar terms whose key ends in the
q-exponent, and take only that form.  `group_terms` turns it into the
grouped one, key[:-1] -> QPolynomial, that serialization and printed
output use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .rationals import GaussianRational, _coerce, format_scalar
from .terms import DimensionMismatch, TermMap, accumulate, add


class QPolynomial(TermMap):
    __slots__ = ("n",)
    _SHAPE = ("n",)

    def __init__(self, n: int, terms: Mapping[tuple, GaussianRational] | None = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        clean = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != n:
                    raise DimensionMismatch(f"exponent {exp} has wrong length for n={n}")
                if c:
                    clean[tuple(exp)] = c if isinstance(c, GaussianRational) else _coerce(c)
        self._init((n,), clean)

    # ---- ring operations ----

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, add(e1, e2), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    # ---- structure ----

    def __repr__(self):
        return f"QPolynomial({self.n}, {self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join(
                f"q{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp) if e
            )
            cs = format_scalar(c)
            if mono:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)

    # ---- canonical JSON ----

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                [list(exp), format_scalar(self.terms[exp])]
                for exp in sorted(self.terms)
            ],
        }


def group_terms(terms: Mapping, n: int) -> dict:
    """key[:-1] -> the QPolynomial of the q-exponents key[-1] under it,
    for flat terms over n coordinates, in sorted key order."""
    grouped: dict = {}
    for key in sorted(terms):
        grouped.setdefault(key[:-1], {})[key[-1]] = terms[key]
    return {head: QPolynomial._trusted((n,), t) for head, t in grouped.items()}
