"""Exact complex scalars: rational real and imaginary parts.

All coefficient arithmetic in this package runs over Q(i).  A value is
one integer triple (a, b, d) meaning (a + b*i)/d, kept reduced: d > 0 and
gcd(a, b, d) = 1, restored by one three-argument gcd per operation.  Each
element of Q(i) therefore has exactly one triple, so values compare
structurally and equality of derived objects is decidable and canonical.
Values are immutable; `re` and `im` give the parts as Fractions, and a
real value hashes like the Fraction (or int) it equals.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """A complex number a + b*i with exact rational a, b."""

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is reduced
        d = lcm(re.denominator, im.denominator)
        _set(self, (re.numerator * (d // re.denominator),
                    im.numerator * (d // im.denominator), d))

    def __setattr__(self, name, value=None):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    @property
    def re(self) -> Fraction:
        a, _b, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _a, b, d = self._t
        return Fraction(b, d)

    # ---- arithmetic ----
    #
    # perfbench/tracer.py counts scalar operations by wrapping the operator
    # slots below, so arithmetic between scalars goes through them.

    def __add__(self, other):
        a, b, d = self._t
        c, e, f = other._t if type(other) is GaussianRational else _parts(other)
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._t
        c, e, f = other._t if type(other) is GaussianRational else _parts(other)
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        a, b, d = self._t
        return _triple(-a, -b, d)

    def __mul__(self, other):
        a, b, d = self._t
        # an int is a kernel's Leibniz or multinomial weight
        c, e, f = other._t if type(other) is GaussianRational else (
            (other, 0, 1) if type(other) is int else _parts(other))
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def inverse(self) -> "GaussianRational":
        a, b, d = self._t
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _reduced(a * d, -b * d, norm)

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _triple(a, -b, d)

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
        a, b, _d = self._t
        return a != 0 or b != 0

    def is_real(self) -> bool:
        return not self._t[1]

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._t == other._t
        a, b, d = self._t
        if isinstance(other, int):
            return b == 0 and d == 1 and a == other
        if isinstance(other, Fraction):
            return b == 0 and a == other.numerator and d == other.denominator
        return NotImplemented

    def __hash__(self):
        a, b, d = self._t
        if b:
            return hash(self._t)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_set = GaussianRational._t.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d; the triple must already be reduced."""
    x = _new(GaussianRational)
    _set(x, (a, b, d))
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any integers a, b and d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


def _parts(x) -> tuple:
    """The reduced triple of a scalar operand."""
    if isinstance(x, GaussianRational):
        return x._t
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


def _coerce(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else _triple(*_parts(x))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF_I = GaussianRational(0, Fraction(1, 2))


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


def parse_fraction(x) -> Fraction:
    """Fraction(x), raising ValueError for a zero denominator too."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except ValueError:
        raise ValueError(f"not a rational number: {x!r}") from None


def parse_scalar(s: str) -> GaussianRational:
    m = _FULL_RE.match(s)
    if m:
        im = parse_fraction(m.group("im"))
        if m.group("sign") == "-":
            im = -im
        return GaussianRational(parse_fraction(m.group("re")), im)
    m = _IMAG_RE.match(s)
    if m:
        return GaussianRational(0, parse_fraction(m.group("im")))
    m = _REAL_RE.match(s)
    if m:
        return GaussianRational(parse_fraction(m.group("re")), 0)
    raise ValueError(f"not a valid scalar string: {s!r}")
