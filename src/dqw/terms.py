"""The sparse core shared by every algebraic container.

A term map is an immutable mapping from hashable keys to nonzero exact
scalars together with a shape, such as the dimension, the truncation
order or the arity, that the operands of every linear operation must
share.  Zero values are never stored, so equal maps have identical term
dictionaries and equality is structural.

The keys are built from multi-indices: tuples of n non-negative ints
for q-exponents, p-exponents and derivative orders D^j.  Their
arithmetic lives here, for every module: `zeros`, `unit`, `add`, `sub`,
`shift`, the enumerators `exponents` and `below`, and the weights
`binom`, `factorial` and `falling`.  `accumulate` and `add_terms` sum
into a plain dict in place, so a kernel or a caller that adds up kernel
outputs keeps one accumulator instead of building a map per addend.
"""

from __future__ import annotations

import itertools
import math
import operator

from .rationals import _coerce


class DimensionMismatch(ValueError):
    """Operands live over different coordinate spaces."""


def accumulate(out: dict, key, value):
    """Add value into out[key], removing the key when the sum is zero."""
    s = out.get(key)
    s = value if s is None else s + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def add_terms(out: dict, terms, subtract: bool = False):
    """Add (or subtract) every term of the mapping terms into out, in
    place, removing the keys whose sum is zero."""
    if not subtract:
        for key, value in terms.items():
            accumulate(out, key, value)
        return
    for key, value in terms.items():
        s = out.get(key)
        if s is None:
            out[key] = -value
        else:
            s = s - value
            if s:
                out[key] = s
            else:
                del out[key]


def exponents(n: int, total: int):
    """Multi-indices of length n summing to exactly total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in exponents(n - 1, total - first):
            yield (first,) + rest


def zeros(n: int) -> tuple:
    return (0,) * n


def unit(n: int, k: int) -> tuple:
    """The multi-index e_k of length n."""
    return tuple(1 if i == k else 0 for i in range(n))


def add(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.sub, a, b))


def shift(a: tuple, k: int, by: int) -> tuple:
    """a + by * e_k."""
    return a[:k] + (a[k] + by,) + a[k + 1:]


def below(upper: tuple):
    """All multi-indices j <= upper componentwise."""
    return itertools.product(*(range(u + 1) for u in upper))


def binom(upper: tuple, lower: tuple) -> int:
    """The multi-index binomial prod_i C(upper_i, lower_i)."""
    return math.prod(math.comb(u, l) for u, l in zip(upper, lower))


def factorial(j: tuple) -> int:
    return math.prod(math.factorial(e) for e in j)


def falling(e: tuple, j: tuple) -> int:
    """E!/(E - j)!, the weight of D^j on q^E; 0 unless j <= E."""
    return math.prod(math.perm(x, y) for x, y in zip(e, j))


class TermMap:
    """Immutable sparse map with the linear structure over Q(i).

    A subclass lists its shape attributes in _SHAPE, in the order its
    constructor takes them; the constructor takes the term mapping last,
    validates the keys, drops zero values and stores both through _init,
    which also keeps the shape as one tuple for the shape checks.
    """

    __slots__ = ("terms", "_shape_tuple")
    _SHAPE: tuple = ()

    def _init(self, shape: tuple, terms: dict):
        for name, value in zip(self._SHAPE, shape):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_shape_tuple", shape)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, shape: tuple, terms: dict) -> "TermMap":
        """A map from terms that need no validation: well-formed keys for
        this shape and nonzero values, as the kernels produce them."""
        out = object.__new__(cls)
        out._init(shape, terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _shape(self) -> tuple:
        return self._shape_tuple

    def _new(self, terms: dict) -> "TermMap":
        """A map of the same shape; its keys come from operands of that
        shape and its values are nonzero, so nothing is re-validated."""
        return self._trusted(self._shape_tuple, terms)

    def _check(self, other: "TermMap"):
        if self._shape_tuple != other._shape_tuple:
            raise DimensionMismatch(
                f"{type(self).__name__} shape mismatch: "
                f"{self._shape_tuple} vs {other._shape_tuple}"
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        add_terms(out, other.terms)
        return self._new(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        add_terms(out, other.terms, subtract=True)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return self._new({})
        return self._new({k: v * c for k, v in self.terms.items()})

    def conjugate(self):
        """Complex conjugation of every coefficient."""
        return self._new({k: v.conjugate() for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape_tuple == other._shape_tuple and self.terms == other.terms

    def __hash__(self):
        return hash((self._shape_tuple, frozenset(self.terms.items())))


class GradedTermMap(TermMap):
    """A term map under keys (a, I, ...) of combined degree a + |I|,
    truncated at K, the second shape entry."""

    __slots__ = ()

    def component(self, d: int) -> "GradedTermMap":
        """The homogeneous part of combined degree d."""
        return self._new({k: v for k, v in self.terms.items() if k[0] + sum(k[1]) == d})

    def retruncate(self, K: int) -> "GradedTermMap":
        """The same terms at truncation order K, dropping those above it."""
        terms = {k: v for k, v in self.terms.items() if k[0] + sum(k[1]) <= K}
        return self._trusted(self._shape_tuple[:1] + (K,) + self._shape_tuple[2:], terms)

    def scale_lambda(self, r: int) -> "GradedTermMap":
        """Multiply by lam^r, dropping terms beyond the truncation."""
        low = self.retruncate(self._shape_tuple[1] - r).terms
        return self._new({(k[0] + r,) + k[1:]: v for k, v in low.items()})


class SquareMatrix:
    """An immutable non-empty square matrix whose entries share one
    dimension n and order K; the involution is the entrywise conjugate
    transpose.  A subclass names its entry class in _ENTRY."""

    __slots__ = ("N", "n", "K", "entries")
    _ENTRY: type

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        N = len(rows)
        if N == 0 or any(len(r) != N for r in rows):
            raise ValueError("matrix must be square and non-empty")
        first = rows[0][0]
        for row in rows:
            for x in row:
                if x.n != first.n or x.K != first.K:
                    raise DimensionMismatch("inconsistent matrix entries")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", first.n)
        object.__setattr__(self, "K", first.K)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other: "SquareMatrix"):
        if self.N != other.N or self.n != other.n or self.K != other.K:
            raise DimensionMismatch("matrix shape or base mismatch")

    def _product(self, other, mul):
        """The matrix product with entry products mul(x, y)."""
        self._check(other)
        N = self.N
        zero = self._ENTRY(self.n, self.K)
        rows = []
        for i in range(N):
            row = []
            for j in range(N):
                acc = zero
                for k in range(N):
                    acc = acc + mul(self.entries[i][k], other.entries[k][j])
                row.append(acc)
            rows.append(row)
        return type(self)(rows)

    def involution(self):
        return type(self)(
            [[self.entries[j][i].conjugate() for j in range(self.N)] for i in range(self.N)]
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"{type(self).__name__}(N={self.N}, n={self.n}, K={self.K})"
