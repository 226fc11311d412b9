"""Multidifferential cochains with values in the formal phase-space algebra.

An arity-k cochain acts on k base polynomials f_1..f_k as

    phi(f_1,..,f_k) = sum  c(q) * lam^a * p^I * D^{J_1}f_1 ... D^{J_k}f_k,

stored in the canonical normal form mapping (a, I, (J_1..J_k)) to the
polynomial coefficient c(q).  Two cochains are equal exactly when their
normal forms coincide.  The combined degree a + |I| grades cochains the
same way it grades algebra elements, and values are truncated at the
element order K.

Coboundary conventions.  The base algebra acts on values either through
the undeformed pointwise product (classical mode) or through the deformed
q/p-pairing product composed with the p-independent embedding (deformed
mode).  With k-ary phi the coboundary is

    (d phi)(f_0,..,f_k) = f_0 . phi(f_1,..,f_k)
                          + sum_{i=1..k} (-1)^i phi(.., f_{i-1} f_i, ..)
                          + (-1)^{k+1} phi(f_0,..,f_{k-1}) . f_k,

where the dot is the chosen bimodule action.  In deformed mode the left
action expands to sum_J (i/2)^{|J|} binom(I, J) lam^{|J|} p^{I-J} D^J f_0
on a normal-form term, the right action likewise with (-i/2)^{|J|}; the
classical action keeps only J = 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .qpoly import DimensionMismatch, PolyTermMap, QPolynomial
from .rationals import GaussianRational, I
from .terms import accumulate, exponents
from .welement import WElement, _add_idx, _zeros
from .weyl import WEYL_PAIRING, _lower, propagate


def _binom_multi(upper: tuple, lower: tuple) -> int:
    out = 1
    for u, l in zip(upper, lower):
        out *= math.comb(u, l)
    return out


def _sub_indices(upper: tuple):
    """All multi-indices J <= upper componentwise."""
    ranges = [range(u + 1) for u in upper]
    return itertools.product(*ranges)


def _sub_idx(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


class MultiDiffCochain(PolyTermMap):
    __slots__ = ("n", "K", "arity")
    _SHAPE = ("n", "K", "arity")

    def __init__(self, n: int, K: int, arity: int,
                 terms: Mapping | None = None):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        clean = {}
        if terms:
            for (a, idx, jvec), poly in terms.items():
                jvec = tuple(tuple(j) for j in jvec)
                if len(jvec) != arity:
                    raise ValueError("derivative tuple has wrong arity")
                if len(idx) != n or any(len(j) != n for j in jvec):
                    raise DimensionMismatch("index length mismatch")
                if a + sum(idx) > K:
                    continue
                if poly:
                    clean[(a, tuple(idx), jvec)] = poly
        self._init((n, K, arity), clean)

    # ---- constructors ----

    @classmethod
    def zero(cls, n: int, K: int, arity: int) -> "MultiDiffCochain":
        return cls(n, K, arity)

    # ---- linear structure ----

    def scale_lambda(self, r: int) -> "MultiDiffCochain":
        """Multiply by lam^r (drops terms beyond the truncation)."""
        return MultiDiffCochain(
            self.n, self.K, self.arity,
            {(a + r, idx, jvec): p for (a, idx, jvec), p in self.terms.items()},
        )

    def retruncate(self, K: int) -> "MultiDiffCochain":
        return MultiDiffCochain(self.n, K, self.arity, self.terms)

    # ---- grading, conjugation, restriction ----

    def component(self, d: int) -> "MultiDiffCochain":
        out = {k: p for k, p in self.terms.items() if k[0] + sum(k[1]) == d}
        return MultiDiffCochain(self.n, self.K, self.arity, out)

    def degrees(self) -> set:
        return {a + sum(idx) for (a, idx, _j) in self.terms}

    def is_homogeneous(self, d: int) -> bool:
        return all(a + sum(idx) == d for (a, idx, _j) in self.terms)

    def classical_limit(self) -> "MultiDiffCochain":
        """Keep only the lam-power-zero part."""
        out = {k: p for k, p in self.terms.items() if k[0] == 0}
        return MultiDiffCochain(self.n, self.K, self.arity, out)

    def involution(self) -> "MultiDiffCochain":
        """phi*(f_1,..,f_k) = conj(phi(conj f_k,..,conj f_1))."""
        out = {}
        for (a, idx, jvec), poly in self.terms.items():
            out[(a, idx, tuple(reversed(jvec)))] = poly.conjugate()
        return MultiDiffCochain(self.n, self.K, self.arity, out)

    def hermitian_part(self) -> "MultiDiffCochain":
        return (self + self.involution()).scale(Fraction(1, 2))

    # ---- evaluation ----

    def evaluate(self, args: Sequence[QPolynomial]) -> WElement:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments")
        for f in args:
            if f.n != self.n:
                raise DimensionMismatch("argument dimension mismatch")
        out: dict = {}
        deriv_cache: dict = {}

        def deriv(si, j):
            key = (si, j)
            got = deriv_cache.get(key)
            if got is None:
                got = args[si]
                for k, e in enumerate(j):
                    for _ in range(e):
                        got = got.diff(k)
                deriv_cache[key] = got
            return got

        for (a, idx, jvec), poly in self.terms.items():
            val = poly
            ok = True
            for si, j in enumerate(jvec):
                d = deriv(si, j)
                if d.is_zero():
                    ok = False
                    break
                val = val * d
            if ok:
                accumulate(out, (a, idx), val)
        return WElement(self.n, self.K, out)

    # ---- structure ----

    def __repr__(self):
        return (f"MultiDiffCochain(n={self.n}, K={self.K}, arity={self.arity}, "
                f"{len(self.terms)} terms)")

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, idx, jvec) in sorted(self.terms):
            poly = self.terms[(a, idx, jvec)]
            factors = []
            if a:
                factors.append("lam" + (f"^{a}" if a > 1 else ""))
            for i, e in enumerate(idx):
                if e:
                    factors.append(f"p{i+1}" + (f"^{e}" if e > 1 else ""))
            for s, j in enumerate(jvec):
                ds = "".join(f"d{d+1}" * e for d, e in enumerate(j))
                factors.append(f"{ds or 'id'}[f{s+1}]")
            parts.append(f"({poly})*" + "*".join(factors))
        return " + ".join(parts)

    # ---- canonical JSON ----

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "max_degree": self.K,
            "arity": self.arity,
            "terms": [
                {
                    "lam": a,
                    "p": list(idx),
                    "derivs": [list(j) for j in jvec],
                    "poly": self.terms[(a, idx, jvec)].to_json()["terms"],
                }
                for (a, idx, jvec) in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiDiffCochain":
        n = data["n"]
        terms = {}
        for entry in data["terms"]:
            key = (entry["lam"], tuple(entry["p"]),
                   tuple(tuple(j) for j in entry["derivs"]))
            terms[key] = QPolynomial.from_json({"n": n, "terms": entry["poly"]})
        return cls(n, data["max_degree"], data["arity"], terms)


# ---------------------------------------------------------------------------
# canonical cochains
# ---------------------------------------------------------------------------

def identity_cochain(n: int, K: int) -> MultiDiffCochain:
    """The arity-1 cochain f -> f (the p-independent embedding)."""
    z = _zeros(n)
    return MultiDiffCochain(n, K, 1, {(0, z, (z,)): QPolynomial.constant(n, 1)})


def mu_cochain(n: int, K: int) -> MultiDiffCochain:
    """The arity-2 cochain (f, g) -> f g."""
    z = _zeros(n)
    return MultiDiffCochain(n, K, 2, {(0, z, (z, z)): QPolynomial.constant(n, 1)})


def biderivation_cochain(n: int, K: int, coeffs) -> MultiDiffCochain:
    """sum_{k,l} coeffs[k][l] * D_k (x) D_l with QPolynomial coefficients."""
    z = _zeros(n)
    terms: dict = {}
    for k in range(n):
        ek = tuple(1 if i == k else 0 for i in range(n))
        for l in range(n):
            c = coeffs[k][l]
            if not c:
                continue
            el = tuple(1 if i == l else 0 for i in range(n))
            accumulate(terms, (0, z, (ek, el)), c)
    return MultiDiffCochain(n, K, 2, terms)


# ---------------------------------------------------------------------------
# coboundary, antisymmetrization
# ---------------------------------------------------------------------------

def _outer_action_terms(a, idx, exp, c, deformed, left):
    """Expand the bimodule action of a new argument on one flat value term.

    Yields (a', idx', jnew, exp, coeff).  jnew is the derivative landing
    on the new argument.
    """
    if not deformed:
        yield (a, idx, _zeros(len(idx)), exp, c)
        return
    for jnew in _sub_indices(idx):
        w = sum(jnew)
        scalar = (I * Fraction(1, 2) if left else I * Fraction(-1, 2)) ** w
        coeff = c * scalar * _binom_multi(idx, jnew)
        yield (a + w, _sub_idx(idx, jnew), tuple(jnew), exp, coeff)


def coboundary(phi: MultiDiffCochain, deformed: bool = True) -> MultiDiffCochain:
    """The bar-complex coboundary for the chosen bimodule action."""
    n, K, k = phi.n, phi.K, phi.arity
    out: dict = {}
    for (a, idx, jvec, exp), c in phi.flat_terms():
        # left outer action: new argument in slot 0
        for (a2, idx2, jnew, exp2, c2) in _outer_action_terms(a, idx, exp, c, deformed, True):
            accumulate(out, (a2, idx2, (jnew,) + jvec, exp2), c2)
        # inner insertions with alternating signs
        sign = -1
        for i in range(k):
            j = jvec[i]
            for l in _sub_indices(j):
                coeff = c * (sign * _binom_multi(j, l))
                newj = jvec[:i] + (tuple(l), _sub_idx(j, tuple(l))) + jvec[i + 1:]
                accumulate(out, (a, idx, newj, exp), coeff)
            sign = -sign
        # right outer action: new argument in slot k
        tail_sign = 1 if (k + 1) % 2 == 0 else -1
        for (a2, idx2, jnew, exp2, c2) in _outer_action_terms(a, idx, exp, c, deformed, False):
            accumulate(out, (a2, idx2, jvec + (jnew,), exp2), c2 * tail_sign)
    return MultiDiffCochain.from_flat(out, n, K, k + 1)


def alt(phi: MultiDiffCochain) -> MultiDiffCochain:
    """Antisymmetrization (1/k!) sum_sigma sign(sigma) phi o sigma."""
    k = phi.arity
    if k <= 1:
        return phi
    out: dict = {}
    norm = Fraction(1)
    for i in range(2, k + 1):
        norm /= i
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        for (a, idx, jvec), poly in phi.terms.items():
            newj = tuple(jvec[perm[i]] for i in range(k))
            key = (a, idx, newj)
            accumulate(out, key, poly.scale(GaussianRational(sign * norm)))
    return MultiDiffCochain(phi.n, phi.K, k, out)


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# cochain-valued deformed product and composition
# ---------------------------------------------------------------------------

def _cochain_dq(term: tuple, k: int):
    """d/dq^k of a value term (a, I, J, E): by the Leibniz rule it hits the
    coefficient monomial q^E or raises one slot's derivative index."""
    a, idx, jvec, exp = term
    out = []
    if exp[k]:
        out.append(((a, idx, jvec, _lower(exp, k)), exp[k]))
    for s, j in enumerate(jvec):
        raised = j[:k] + (j[k] + 1,) + j[k + 1:]
        out.append(((a, idx, jvec[:s] + (raised,) + jvec[s + 1:], exp), 1))
    return out


def _cochain_join(t1: tuple, t2: tuple, r: int) -> tuple:
    return (t1[0] + t2[0] + r, _add_idx(t1[1], t2[1]), t1[2] + t2[2],
            _add_idx(t1[3], t2[3]))


def cochain_weyl_product(phi: MultiDiffCochain, psi: MultiDiffCochain) -> MultiDiffCochain:
    """The q/p-pairing product of cochain values, joining argument slots.

    The result has arity arity(phi) + arity(psi) and satisfies
    (phi . psi)(f.., g..) = phi(f..) . psi(g..) for the deformed product
    of the values.
    """
    if phi.n != psi.n or phi.K != psi.K:
        raise DimensionMismatch("cochain base mismatch")
    flat = propagate(phi.flat_terms(), psi.flat_terms(), WEYL_PAIRING,
                     _cochain_dq, _cochain_join, phi.K)
    return MultiDiffCochain.from_flat(flat, phi.n, phi.K, phi.arity + psi.arity)


def _splittings(j: tuple, parts: int):
    """All ways to write the multi-index j as an ordered sum of `parts`
    multi-indices, with the multinomial coefficient."""
    if parts == 0:
        if not any(j):
            yield [], 1
        return
    n = len(j)
    per_dim = []
    for d in range(n):
        per_dim.append(list(exponents(parts, j[d])))
    for combo in itertools.product(*per_dim):
        pieces = [tuple(combo[d][p] for d in range(n)) for p in range(parts)]
        coeff = 1
        for d in range(n):
            coeff *= _multinomial(j[d], combo[d])
        yield pieces, coeff


def _multinomial(total: int, parts) -> int:
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def compose_slot(phi: MultiDiffCochain, slot: int, inner: MultiDiffCochain) -> MultiDiffCochain:
    """Substitute the p- and lam-free cochain `inner` into one argument
    slot of phi, expanding derivatives of products into normal form."""
    if inner.n != phi.n or inner.K != phi.K:
        raise DimensionMismatch("cochain base mismatch")
    for (a, idx, _j) in inner.terms:
        if a or any(idx):
            raise ValueError("inner cochain must have p- and lam-free values")
    if not 0 <= slot < phi.arity:
        raise IndexError("slot out of range")
    n, K = phi.n, phi.K
    m = inner.arity
    out: dict = {}
    inner_flat = list(inner.flat_terms())
    splits: dict = {}  # multi-index -> its splittings over the m inner slots
    for (a, idx, jvec, exp), c in phi.flat_terms():
        j = jvec[slot]
        head, tail = jvec[:slot], jvec[slot + 1:]
        for (_, _, avec, fexp), ic in inner_flat:
            cc = c * ic
            # Leibniz: j0 <= j differentiates the inner coefficient q^fexp
            # (weight C(j, j0) * fexp!/(fexp - j0)!), the rest splits over
            # the inner arguments
            for j0 in _sub_indices(tuple(map(min, j, fexp))):
                weight = math.prod(math.comb(x, y) * math.perm(f, y)
                                   for x, f, y in zip(j, fexp, j0))
                new_exp = _add_idx(exp, _sub_idx(fexp, j0))
                rest = _sub_idx(j, j0)
                pieces_list = splits.get(rest)
                if pieces_list is None:
                    pieces_list = splits[rest] = list(_splittings(rest, m))
                for pieces, mult in pieces_list:
                    new_slots = tuple(_add_idx(avec[s], pieces[s]) for s in range(m))
                    accumulate(out, (a, idx, head + new_slots + tail, new_exp),
                               cc * (weight * mult))
    return MultiDiffCochain.from_flat(out, n, K, phi.arity + m - 1)


def plug_constant(phi: MultiDiffCochain, slot: int) -> MultiDiffCochain:
    """Evaluate one argument slot at the constant function 1."""
    if not 0 <= slot < phi.arity:
        raise IndexError("slot out of range")
    out: dict = {}
    for (a, idx, jvec), poly in phi.terms.items():
        if any(jvec[slot]):
            continue
        accumulate(out, (a, idx, jvec[:slot] + jvec[slot + 1:]), poly)
    return MultiDiffCochain(phi.n, phi.K, phi.arity - 1, out)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def find_witness(phi: MultiDiffCochain):
    """A tuple of monomials on which a nonzero cochain evaluates nonzero.

    Scanning the derivative support works because evaluation at the
    monomials q^{J} for a minimal support element J (componentwise order)
    picks up exactly the terms with that derivative tuple.
    Returns (args, value) or None for the zero cochain.
    """
    if phi.is_zero():
        return None
    supports = sorted(
        {jvec for (_a, _i, jvec) in phi.terms},
        key=lambda jv: (sum(sum(j) for j in jv), jv),
    )
    for jvec in supports:
        args = [QPolynomial.monomial(phi.n, j) for j in jvec]
        val = phi.evaluate(args)
        if not val.is_zero():
            return args, val
    raise AssertionError("witness scan failed on a nonzero cochain")
