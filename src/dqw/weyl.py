"""Deformed products on the formal phase-space algebra.

The two products implemented here act on WElement values over n base
coordinates q^1..q^n with conjugate momenta p_1..p_n:

* the exponential-form product pairing d/dq^k with d/dp_k
  antisymmetrically, with r-th order coefficient (i*lam/2)^r / r!;
* the holomorphic/antiholomorphic pairing product in the complex
  combinations z^k = q^k + i p_k, with coefficient (2*lam)^r / r!
  and Wirtinger derivatives d/dz = (d/dq - i d/dp)/2,
  d/dzbar = (d/dq + i d/dp)/2.

Both products are computed exactly: on polynomial data the series
terminate, and truncation only drops terms whose combined degree
exceeds the element's order K.

The operator family E_sigma = exp(sigma * lam * Lap) with
Lap = sum_k d^2/dz^k dzbar^k = (1/4) sum_k (d^2/d(q^k)^2 + d^2/d(p_k)^2)
conjugates one product into the other.  The sign sigma that actually
intertwines them under the conventions above is discovered at runtime by
symbolic verification on a monomial basis (and cached per dimension and
order) rather than hard-coded.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .qpoly import DimensionMismatch
from .rationals import GaussianRational, HALF_I, ONE
from .terms import SquareMatrix, accumulate, exponents
from .welement import LambdaPoly, WElement, _add_idx, _zeros


class ConsistencyError(RuntimeError):
    """An internal symbolic self-check failed; indicates a genuine bug."""


# ---------------------------------------------------------------------------
# pair propagation: one kernel for every deformed product
# ---------------------------------------------------------------------------

# A pairing P = sum_k sum_(u, v, w) w * d/du^k (x) d/dv^k, with u and v each
# "q" (the coordinate q^k) or "p" (the momentum p_k), as a table of entries
# (u, v, w).  The q/p-pairing product is sum_r lam^r/r! P^r(a (x) b) with
# P = (i/2)(dq (x) dp - dp (x) dq); the z/zbar product is the same sum with
# P = 2 dz (x) dzbar, whose expansion adds (1/2)(dq (x) dq + dp (x) dp).
WEYL_PAIRING = (("q", "p", HALF_I), ("p", "q", -HALF_I))
WICK_PAIRING = WEYL_PAIRING + (("q", "q", GaussianRational(Fraction(1, 2))),
                               ("p", "p", GaussianRational(Fraction(1, 2))))


def _lower(idx: tuple, k: int) -> tuple:
    return idx[:k] + (idx[k] - 1,) + idx[k + 1:]


def _dp(term: tuple, k: int):
    """d/dp_k of a flat term (lam-power, p-exponent, ...), as
    (term, multiplicity) pairs."""
    m = term[1][k]
    if not m:
        return ()
    return (((term[0], _lower(term[1], k)) + term[2:], m),)


def propagate(left, right, pairing, dq, join, K: int) -> dict:
    """sum_r lam^r/r! P^r(a (x) b) on flat terms, truncated at combined
    degree K.

    left and right are (term, coefficient) pairs of the two operands, each
    term starting with its lam-power and p-exponent.  dq(term, k) gives
    the (term, multiplicity) pairs of d/dq^k on one term, and
    join(t1, t2, r) the output key of a pair after r pairings; only these
    differ between algebra elements and cochains.  Every pairing raises
    the lam-power, so a pair whose next lam-power exceeds K stops.  When
    no entry takes two p-derivatives, no pairing lowers the combined
    degree a + |I| of a pair, so pairs above K are dropped on entry.
    """
    steps = [("qp".index(u), "qp".index(v), w) for u, v, w in pairing]
    monotone = all(u != "p" or v != "p" for u, v, _w in pairing)
    right = list(right)
    state: dict = {}
    for t1, c1 in left:
        d1 = t1[0] + sum(t1[1])
        for t2, c2 in right:
            if monotone and d1 + t2[0] + sum(t2[1]) > K:
                continue
            accumulate(state, (t1, t2), c1 * c2)
    weights: dict = {}  # (entry, multiplicity, r) -> weight * multiplicity / (r + 1)
    out: dict = {}
    r = 0
    while state:
        # state holds the pairs of P^r(a (x) b) / r!
        new: dict = {}
        for (t1, t2), c in state.items():
            key = join(t1, t2, r)
            if key[0] + sum(key[1]) <= K:
                accumulate(out, key, c)
            if t1[0] + t2[0] + r + 1 > K:
                continue
            for k in range(len(t1[1])):
                lefts = (dq(t1, k), _dp(t1, k))
                rights = (dq(t2, k), _dp(t2, k))
                for s, (li, ri, w) in enumerate(steps):
                    for lt, lm in lefts[li]:
                        for rt, rm in rights[ri]:
                            m = lm * rm
                            wm = weights.get((s, m, r))
                            if wm is None:
                                wm = weights[(s, m, r)] = w * Fraction(m, r + 1)
                            accumulate(new, (lt, rt), c * wm)
        state = new
        r += 1
    return out


def _element_dq(term: tuple, k: int):
    a, idx, exp = term
    m = exp[k]
    return (((a, idx, _lower(exp, k)), m),) if m else ()


def _element_join(t1: tuple, t2: tuple, r: int) -> tuple:
    return (t1[0] + t2[0] + r, _add_idx(t1[1], t2[1]), _add_idx(t1[2], t2[2]))


def _pair_product(a: WElement, b: WElement, pairing, K: int) -> WElement:
    flat = propagate(a.flat_terms(), b.flat_terms(), pairing,
                     _element_dq, _element_join, K)
    return WElement.from_flat(flat, a.n, K)


def _laplace_image(flat: dict, n: int) -> dict:
    """One application of (1/4) sum_k (d^2/d(q^k)^2 + d^2/d(p_k)^2)."""
    out: dict = {}
    quarter = Fraction(1, 4)
    for (a, idx, exp), c in flat.items():
        for k in range(n):
            if exp[k] >= 2:
                e = list(exp); e[k] -= 2
                accumulate(out, (a, idx, tuple(e)), c * (exp[k] * (exp[k] - 1) * quarter))
            if idx[k] >= 2:
                i = list(idx); i[k] -= 2
                accumulate(out, (a, tuple(i), exp), c * (idx[k] * (idx[k] - 1) * quarter))
    return out


def _exp_laplace(x: WElement, sign: int, K: int) -> WElement:
    """Apply exp(sign * lam * Lap), exactly on polynomial data."""
    n = x.n
    state = dict(x.flat_terms())
    out: dict = {}
    m = 0
    factor = ONE  # sign^m / m!
    while state:
        for (a, idx, exp), c in state.items():
            if a + m + sum(idx) <= K:
                accumulate(out, (a + m, idx, exp), c * factor)
        state = _laplace_image(state, n)
        m += 1
        factor = factor * Fraction(sign, m)
    return WElement.from_flat(out, n, K)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class MatrixWElement(SquareMatrix):
    """A square matrix with WElement entries."""

    __slots__ = ()
    _ENTRY = WElement


# ---------------------------------------------------------------------------
# public products
# ---------------------------------------------------------------------------

def _product(a, b, pairing):
    if isinstance(a, MatrixWElement):
        if not isinstance(b, MatrixWElement):
            raise DimensionMismatch("cannot mix matrix and scalar operands")
        return a._product(b, lambda x, y: _pair_product(x, y, pairing, a.K))
    a._check(b)
    return _pair_product(a, b, pairing, a.K)


def weyl_product(a, b):
    """The deformed product with antisymmetric q/p derivative pairing.

    Graded inputs of degree j and k multiply to degree j + k, so the
    truncation at order K is exact.
    """
    return _product(a, b, WEYL_PAIRING)


def wick_product(a, b):
    """The deformed product pairing d/dz with d/dzbar, z^k = q^k + i p_k."""
    return _product(a, b, WICK_PAIRING)


def canonical_bracket(a: WElement, b: WElement) -> WElement:
    """The canonical bracket sum_k (dq^k a * dp_k b - dp_k a * dq^k b)."""
    a._check(b)
    out = WElement.zero(a.n, a.K)
    for k in range(a.n):
        out = out + a.diff_q(k) * b.diff_p(k) - a.diff_p(k) * b.diff_q(k)
    return out


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

def pi_star(f: LambdaPoly, K: int | None = None) -> WElement:
    """Embed a base lam-series as a p-independent element."""
    K = f.K if K is None else K
    n = f.n
    return WElement(n, K, {(r, _zeros(n)): poly for r, poly in f.terms.items()})


def iota_star(a: WElement) -> LambdaPoly:
    """Set all momenta to zero, keeping the lam-series of q-polynomials."""
    n = a.n
    zero_idx = _zeros(n)
    coeffs = {r: poly for (r, idx), poly in a.terms.items() if idx == zero_idx}
    return LambdaPoly(n, a.K, coeffs)


# ---------------------------------------------------------------------------
# the exponential equivalence between the two products
# ---------------------------------------------------------------------------

def _monomial_basis(n: int, total_degree: int, q_cap: int | None = None):
    """All monomials lam^a p^I q^E with a + |I| + |E| <= total_degree."""
    out = []
    for d in range(total_degree + 1):
        for a in range(d + 1):
            for ptot in range(d - a + 1):
                qtot = d - a - ptot
                if q_cap is not None and qtot > q_cap:
                    continue
                for pi in exponents(n, ptot):
                    for qe in exponents(n, qtot):
                        out.append((a, pi, qe))
    return out


def _exact_order_for_pair(a: WElement, b: WElement) -> int:
    """A truncation order at which all intermediate results of the
    intertwining check are computed without dropping any term."""
    def budget(x):
        m = 0
        for (la, idx), poly in x.terms.items():
            qd = max((sum(e) for e in poly.terms), default=0)
            m = max(m, la + 2 * (sum(idx) + qd))
        return m
    return budget(a) + budget(b) + 2


def _check_sign_on_pair(sign: int, a: WElement, b: WElement) -> bool:
    K = _exact_order_for_pair(a, b)
    a = a.lift(K)
    b = b.lift(K)
    lhs = _exp_laplace(_pair_product(a, b, WICK_PAIRING, K), sign, K)
    rhs = _pair_product(_exp_laplace(a, sign, K), _exp_laplace(b, sign, K),
                        WEYL_PAIRING, K)
    return lhs == rhs


_SIGN_CACHE: dict = {}


def resolve_fock_sign(n: int, K: int, q_cap: int = 2) -> dict:
    """Determine the sign sigma with E_sigma = exp(sigma lam Lap) mapping
    the z/zbar product into the q/p product multiplicatively.

    The verification runs over all ordered pairs from the monomial basis
    with combined degree a + |I| <= min(K, 2) and q-degree <= q_cap,
    computed in exact (untruncated) arithmetic, plus compatibility with
    conjugation.  Exactly one sign must pass.  The result is memoized per
    (n, K).
    """
    key = (n, K)
    cached = _SIGN_CACHE.get(key)
    if cached is not None:
        return cached
    deg = min(K, 2) if K >= 1 else 1
    basis = [
        WElement.monomial(n, max(K, deg), a, pi, qe)
        for (a, pi, qe) in _monomial_basis(n, deg + q_cap, q_cap=q_cap)
        if a + sum(pi) <= deg
    ]
    survivors = []
    for sign in (1, -1):
        ok = all(
            _check_sign_on_pair(sign, x, y)
            for x, y in itertools.product(basis, repeat=2)
        )
        ok = ok and all(
            _exp_laplace(x.conjugate(), sign, x.K) == _exp_laplace(x, sign, x.K).conjugate()
            for x in basis
        )
        if ok:
            survivors.append(sign)
    if len(survivors) != 1:
        raise ConsistencyError(
            f"equivalence sign resolution failed for n={n}, K={K}: "
            f"passing signs {survivors}"
        )
    report = {"n": n, "K": K, "sigma": survivors[0], "basis_size": len(basis)}
    _SIGN_CACHE[key] = report
    return report


def fock_equivalence(a, direction: str = "forward", sign: int | None = None):
    """Apply the product-intertwining operator E = exp(sigma lam Lap).

    direction "forward" maps the z/zbar product side into the q/p side;
    "inverse" applies the inverse operator.  Returns (result, sigma).
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    sigma = resolve_fock_sign(a.n, a.K)["sigma"] if sign is None else sign
    s = sigma if direction == "forward" else -sigma
    if isinstance(a, MatrixWElement):
        return a.map_entries(lambda x: _exp_laplace(x, s, x.K)), sigma
    return _exp_laplace(a, s, a.K), sigma


def exp_laplace_exact(x: WElement, sign: int) -> WElement:
    """exp(sign lam Lap) at a lifted truncation where nothing is dropped."""
    bound = 0
    for (a, idx), poly in x.terms.items():
        qd = max((sum(e) for e in poly.terms), default=0)
        bound = max(bound, a + sum(idx) + (sum(idx) + qd + 1) // 2 + 1)
    K = max(x.K, bound)
    return _exp_laplace(x.lift(K), sign, K)
