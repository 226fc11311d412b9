"""The phase-space side of the deformation: the pairing kernel and the
Laplacian equivalence, with its zero-momentum part in closed form.

Over n base coordinates q^1..q^n with conjugate momenta p_1..p_n, two
deformed products are given as pairing tables:

* the q/p pairing of d/dq^k with d/dp_k, antisymmetric, with r-th
  order coefficient (i*lam/2)^r / r!;
* the z/zbar pairing in the complex combinations z^k = q^k + i p_k,
  with coefficient (2*lam)^r / r! and Wirtinger derivatives
  d/dz = (d/dq - i d/dp)/2, d/dzbar = (d/dq + i d/dp)/2.

`propagate` computes the product of a table exactly on flat terms; the
pipeline runs it with the q/p table on cochain values
(`cochain.cochain_weyl_product`), the tests also on elements
(`tests/oracles.py`).

The operator family E_sigma = exp(sigma * lam * Lap) with
Lap = sum_k d^2/dz^k dzbar^k = (1/4) sum_k (d^2/d(q^k)^2 + d^2/d(p_k)^2)
conjugates the z/zbar product into the q/p product.  The sign sigma
that intertwines them under the conventions above is not hard-coded:
it is certified at runtime on the quadratic symbols read from the same
pairing and Laplacian tables that `propagate` and Lap apply.  The
deformed functional needs only the zero-momentum part of the inverse
operator's image, which `exp_laplace_exact` gives per monomial in
closed form, a product of one-variable Gaussian smoothings.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .rationals import GaussianRational, HALF_I, ZERO, _coerce
from .terms import accumulate, shift
from .welement import LambdaPoly, WElement


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


def _dp(term: tuple, k: int):
    """d/dp_k of a flat term (lam-power, p-exponent, ...), as
    (term, multiplicity) pairs."""
    m = term[1][k]
    if not m:
        return ()
    return (((term[0], shift(term[1], k, -1)) + term[2:], m),)


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


# Lap = sum_k sum_(u, w) w d^2/d(u^k)^2; the operator and the sign
# certificate both read this table.
LAPLACIAN = tuple((u, Fraction(1, 4)) for u in "qp")


# ---------------------------------------------------------------------------
# the exponential equivalence between the two products
# ---------------------------------------------------------------------------

_SYMBOL_KEYS = tuple((u, v) for u in "qp" for v in "qp")


def _symbol(table) -> dict:
    """The {q,p} x {q,p} coefficient matrix of the bilinear symbol
    sum_(u, v, w) w xi_u eta_v of a pairing table."""
    out = dict.fromkeys(_SYMBOL_KEYS, ZERO)
    for u, v, w in table:
        out[(u, v)] += w
    return out


def _equivalence_signs(wick, weyl, laplace) -> tuple:
    """The signs sigma for which exp(sigma lam Lap) maps the product of the
    pairing table `wick` into that of `weyl`, Lap being the table `laplace`.

    All three are exponentials of constant-coefficient operators, so on
    e^(xi.x), x = (q, p), they act by their symbols, and E_sigma intertwines
    the products exactly when wick(xi, eta) - weyl(xi, eta) =
    -sigma (L(xi+eta) - L(xi) - L(eta)).  No table couples two indices k,
    so this is an equality of {q,p} x {q,p} matrices.  E must commute with
    conjugation, so the Laplacian weights must be real.
    """
    if not all(_coerce(w).is_real() for _u, w in laplace):
        return ()
    gap = _symbol(tuple(wick) + tuple((u, v, -w) for u, v, w in weyl))
    polar = _symbol((u, u, w + w) for u, w in laplace)  # L(xi+eta) - L(xi) - L(eta)
    return tuple(s for s in (1, -1) if all(gap[k] == -s * polar[k] for k in _SYMBOL_KEYS))


def resolve_fock_sign() -> dict:
    """The sign sigma with E_sigma = exp(sigma lam Lap) mapping the z/zbar
    product into the q/p product, certified on the symbols of the tables
    (alike for every n and K); basis_size counts the coefficients compared."""
    signs = _equivalence_signs(WICK_PAIRING, WEYL_PAIRING, LAPLACIAN)
    if len(signs) != 1:
        raise ConsistencyError("equivalence sign resolution failed: "
                               f"passing signs {list(signs)}")
    return {"sigma": signs[0], "basis_size": len(_SYMBOL_KEYS)}


@functools.lru_cache(maxsize=1024)
def _gauss(w, m: int, j: int) -> Fraction:
    """The coefficient of lam^j u^(m-2j) in exp(w lam d^2/du^2) u^m."""
    return w ** j * Fraction(math.factorial(m), math.factorial(m - 2 * j) * math.factorial(j))


def exp_laplace_exact(x: WElement, sign: int, K: int) -> LambdaPoly:
    """The zero-momentum part iota*(exp(sign lam Lap) x) of the operator,
    truncated at lam^K, in closed form term by term.

    Lap acts on each variable u on its own, with weight w_u from
    `LAPLACIAN`, so the operator is a product of one-variable Gaussian
    smoothings (`_gauss`).  At p = 0 a momentum p_k^m leaves only its
    j = m/2 term, so an odd power drops out; a coordinate q^e keeps every
    j <= e/2.
    """
    wq, wp = (sign * sum(w for v, w in LAPLACIAN if v == u) for u in "qp")
    out: dict = {}
    for (a, idx, exp), c in x.terms.items():
        a += sum(idx) // 2
        if a > K or any(m % 2 for m in idx):
            continue
        for m in idx:
            if m:
                c = c * _gauss(wp, m, m // 2)
        for js in itertools.product(*(range(min(e // 2, K - a) + 1) for e in exp)):
            r = a + sum(js)
            if r <= K:
                w = c
                for e, j in zip(exp, js):
                    if j:
                        w = w * _gauss(wq, e, j)
                accumulate(out, (r, tuple(e - 2 * j for e, j in zip(exp, js))), w)
    return LambdaPoly._trusted((x.n, K), out)
