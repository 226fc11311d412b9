"""Exact complex scalars: rational real and imaginary parts.

All coefficient arithmetic in this package runs over Q(i).  Values are
immutable, always reduced (``fractions.Fraction`` keeps numerator and
denominator coprime with positive denominator), and compare structurally,
so equality of derived objects is decidable and canonical.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction


class GaussianRational:
    """A complex number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # fast path: parts are already Fractions
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # ---- arithmetic ----

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def inverse(self) -> "GaussianRational":
        d = self.re * self.re + self.im * self.im
        if not d:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational._raw(self.re / d, -self.im / d)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # ---- structure ----

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational._raw(Fraction(x), Fraction(0))
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF_I = GaussianRational(0, Fraction(1, 2))


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor; accepts ints, Fractions or 'a/b' strings."""
    return GaussianRational(Fraction(re), Fraction(im))


# ---- canonical string form ----
#
# The canonical serialization of a scalar is "a/b", "a/b i" or "a/b+c/d i"
# (fractions render without the denominator when it is 1).  The writer is
# deterministic and the parser accepts exactly this grammar, so round-trips
# are bit-exact.

_IMAG_RE = _re.compile(r"^\s*(?P<im>[+-]?[0-9]+(?:/[0-9]+)?)\s*i\s*$")
_FULL_RE = _re.compile(
    r"^\s*(?P<re>[+-]?[0-9]+(?:/[0-9]+)?)\s*"
    r"(?P<sign>[+-])\s*(?P<im>[0-9]+(?:/[0-9]+)?)\s*i\s*$"
)
_REAL_RE = _re.compile(r"^\s*(?P<re>[+-]?[0-9]+(?:/[0-9]+)?)\s*$")


def format_scalar(x: GaussianRational) -> str:
    if not x.im:
        return str(x.re)
    if not x.re:
        return f"{x.im} i"
    sign = "+" if x.im > 0 else "-"
    return f"{x.re}{sign}{abs(x.im)} i"


def parse_scalar(s: str) -> GaussianRational:
    m = _FULL_RE.match(s)
    if m:
        im = Fraction(m.group("im"))
        if m.group("sign") == "-":
            im = -im
        return GaussianRational(Fraction(m.group("re")), im)
    m = _IMAG_RE.match(s)
    if m:
        return GaussianRational(0, Fraction(m.group("im")))
    m = _REAL_RE.match(s)
    if m:
        return GaussianRational(Fraction(m.group("re")), 0)
    raise ValueError(f"not a valid scalar string: {s!r}")

