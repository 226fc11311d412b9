"""Multidifferential cochains with values in the formal phase-space algebra.

An arity-k cochain acts on k base lam-series f_1..f_k as

    phi(f_1,..,f_k) = sum  c(q) * lam^a * p^I * D^{J_1}f_1 ... D^{J_k}f_k,

stored flat, in the canonical normal form mapping (a, I, (J_1..J_k), E)
to the scalar coefficient of the monomial q^E in c(q); every kernel reads
and writes this form.  Two cochains are equal exactly when their normal
forms coincide.  The combined degree a + |I| grades cochains the
same way it grades algebra elements; the action is lam-multilinear, so
the lam-powers of the arguments add to a, and values are truncated at
the cochain's order K.

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

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .qpoly import group_terms
from .rationals import I, _coerce
from .terms import (DimensionMismatch, GradedTermMap, accumulate, add, below, binom,
                    exponents, factorial, falling, shift, sub, zeros)
from .welement import LambdaPoly, WElement
from .weyl import WEYL_PAIRING, propagate


class MultiDiffCochain(GradedTermMap):
    __slots__ = ("n", "K", "arity")
    _SHAPE = ("n", "K", "arity")

    def __init__(self, n: int, K: int, arity: int,
                 terms: Mapping | None = None):
        """terms maps (a, I, J, E) to the coefficient of q^E."""
        if arity < 0:
            raise ValueError("arity must be non-negative")
        clean: dict = {}
        for (a, idx, jvec, exp), c in (terms or {}).items():
            jvec = tuple(tuple(j) for j in jvec)
            if len(jvec) != arity:
                raise ValueError("derivative tuple has wrong arity")
            if any(len(x) != n for x in (idx, exp) + jvec):
                raise DimensionMismatch("index length mismatch")
            if a + sum(idx) <= K:
                accumulate(clean, (a, tuple(idx), jvec, tuple(exp)), _coerce(c))
        self._init((n, K, arity), clean)

    # ---- grading, conjugation, restriction ----

    def degrees(self) -> set:
        return {k[0] + sum(k[1]) for k in self.terms}

    def is_homogeneous(self, d: int) -> bool:
        return all(k[0] + sum(k[1]) == d for k in self.terms)

    def classical_limit(self) -> "MultiDiffCochain":
        """Keep only the lam-power-zero part."""
        return self._new({k: c for k, c in self.terms.items() if k[0] == 0})

    def involution(self) -> "MultiDiffCochain":
        """phi*(f_1,..,f_k) = conj(phi(conj f_k,..,conj f_1))."""
        return self._new({(a, idx, jvec[::-1], exp): c.conjugate()
                          for (a, idx, jvec, exp), c in self.terms.items()})

    def hermitian_part(self) -> "MultiDiffCochain":
        """(phi + phi*) / 2; phi itself, the same object, when it is
        already Hermitian."""
        inv = self.involution()
        if inv == self:
            return self
        return (self + inv).scale(Fraction(1, 2))

    # ---- evaluation ----

    def evaluate(self, args: Sequence[LambdaPoly]) -> WElement:
        """phi(f_1,..,f_k) for base lam-series f_s, extended lam-multilinearly:
        the lam-powers of the arguments add to the term's own, and the
        value is truncated at the cochain's order K, whatever the
        arguments' orders."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments")
        for f in args:
            if f.n != self.n:
                raise DimensionMismatch("argument dimension mismatch")
        K = self.K
        # the arguments at order K, so that their products are truncated there
        args = [LambdaPoly._trusted((self.n, K), {key: v for key, v in f.terms.items()
                                                  if key[0] <= K}) for f in args]
        out: dict = {}
        # D^j of an argument vanishes unless j <= its componentwise top exponent
        tops = [tuple(map(max, zip(*(e for _r, e in f.terms)))) for f in args]
        derivs: dict = {}  # (slot, j) -> D^j of that slot's argument, or False
        products: dict = {}  # J -> the product of the slots' D^{J_s}, or False
        # the product over no slots is the constant 1
        one = LambdaPoly.constant(self.n, K, 1)
        for (a, idx, jvec, exp), c in self.terms.items():
            prod = products.get(jvec)
            if prod is None:
                prod = one
                for si, j in enumerate(jvec):
                    d = derivs.get((si, j))
                    if d is None:
                        d = derivs[(si, j)] = (all(map(operator.le, j, tops[si]))
                                               and args[si].derivative(j))
                    if not d:
                        prod = False
                        break
                    prod = d if prod is one else prod * d
                products[jvec] = prod
            if prod:
                top = K - a - sum(idx)
                for (r, e), v in prod.terms.items():
                    if r <= top:
                        accumulate(out, (a + r, idx, add(e, exp) if any(exp) else e), v * c)
        return WElement._trusted((self.n, K), out)

    # ---- structure ----

    def __repr__(self):
        return (f"MultiDiffCochain(n={self.n}, K={self.K}, arity={self.arity}, "
                f"{len(self.terms)} terms)")

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, idx, jvec), poly in group_terms(self.terms, self.n).items():
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
                {"lam": a, "p": list(idx), "derivs": [list(j) for j in jvec],
                 "poly": poly.to_json()["terms"]}
                for (a, idx, jvec), poly in group_terms(self.terms, self.n).items()
            ],
        }


# ---------------------------------------------------------------------------
# canonical cochains
# ---------------------------------------------------------------------------

def identity_cochain(n: int, K: int) -> MultiDiffCochain:
    """The arity-1 cochain f -> f (the p-independent embedding)."""
    z = zeros(n)
    return MultiDiffCochain(n, K, 1, {(0, z, (z,), z): 1})


def mu_cochain(n: int, K: int) -> MultiDiffCochain:
    """The arity-2 cochain (f, g) -> f g."""
    z = zeros(n)
    return MultiDiffCochain(n, K, 2, {(0, z, (z, z), z): 1})


# ---------------------------------------------------------------------------
# coboundary, swap and antisymmetrization
# ---------------------------------------------------------------------------

def _action_rows(idx: tuple, powers: list, deformed: bool) -> list:
    """The bimodule action of a new argument on value terms with
    p-exponent idx: (lam-shift w, idx - jnew, jnew, coefficient) rows,
    jnew <= idx the derivative landing on the new argument (only 0 in
    classical mode) and the coefficient powers[w] binom(idx, jnew), None
    when it is 1."""
    rows = []
    for jnew in below(idx if deformed else zeros(len(idx))):
        w = sum(jnew)
        coeff = powers[w] * binom(idx, jnew)
        rows.append((w, sub(idx, jnew), jnew, None if coeff == 1 else coeff))
    return rows


def coboundary(phi: MultiDiffCochain, deformed: bool = True) -> MultiDiffCochain:
    """The bar-complex coboundary for the chosen bimodule action.  The
    powers (+-i/2)^w of the action are taken once per call, the action
    rows of each p-exponent and the splits of each derivative index
    once per call where they first occur."""
    n, K, k = phi.n, phi.K, phi.arity
    tail_sign = 1 if (k + 1) % 2 == 0 else -1
    # (i/2)^w for the left action and tail_sign (-i/2)^w for the right one
    powers = [[(I * Fraction(s, 2)) ** w * t for w in range(K + 1)]
              for s, t in ((1, 1), (-1, tail_sign))]
    actions: dict = {}  # p-exponent -> [left rows, right rows]
    splits: dict = {}  # j -> (l, j - l, binom(j, l)) for l <= j
    out: dict = {}
    for (a, idx, jvec, exp), c in phi.terms.items():
        rows = actions.get(idx)
        if rows is None:
            rows = actions[idx] = [_action_rows(idx, p, deformed) for p in powers]
        # left outer action: new argument in slot 0
        for w, idx2, jnew, coeff in rows[0]:
            accumulate(out, (a + w, idx2, (jnew,) + jvec, exp),
                       c if coeff is None else c * coeff)
        # inner insertions with alternating signs
        sign = -1
        for i in range(k):
            j = jvec[i]
            rows_j = splits.get(j)
            if rows_j is None:
                rows_j = splits[j] = [(l, sub(j, l), binom(j, l)) for l in below(j)]
            head, tail = jvec[:i], jvec[i + 1:]
            for l, rest, b in rows_j:
                b *= sign
                accumulate(out, (a, idx, head + (l, rest) + tail, exp), c if b == 1 else c * b)
            sign = -sign
        # right outer action: new argument in slot k
        for w, idx2, jnew, coeff in rows[1]:
            accumulate(out, (a + w, idx2, jvec + (jnew,), exp),
                       c if coeff is None else c * coeff)
    return MultiDiffCochain._trusted((n, K, k + 1), out)


def swap(phi: MultiDiffCochain) -> MultiDiffCochain:
    """The 2-cochain with its arguments exchanged: (f, g) -> phi(g, f)."""
    return phi._new({(a, idx, (j2, j1), exp): c
                     for (a, idx, (j1, j2), exp), c in phi.terms.items()})


def alt(phi: MultiDiffCochain) -> MultiDiffCochain:
    """The antisymmetric part (phi - swap(phi)) / 2 of a 2-cochain."""
    if phi.arity != 2:
        raise ValueError(f"alt takes a 2-cochain, not arity {phi.arity}")
    return (phi - swap(phi)).scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# cochain-valued deformed product and composition
# ---------------------------------------------------------------------------

def _cochain_dq(term: tuple, k: int):
    """d/dq^k of a value term (a, I, J, E): by the Leibniz rule it hits the
    coefficient monomial q^E or raises one slot's derivative index."""
    a, idx, jvec, exp = term
    out = []
    if exp[k]:
        out.append(((a, idx, jvec, shift(exp, k, -1)), exp[k]))
    for s, j in enumerate(jvec):
        out.append(((a, idx, jvec[:s] + (shift(j, k, 1),) + jvec[s + 1:], exp), 1))
    return out


def _cochain_join(t1: tuple, t2: tuple, r: int) -> tuple:
    return (t1[0] + t2[0] + r, add(t1[1], t2[1]), t1[2] + t2[2], add(t1[3], t2[3]))


def cochain_weyl_product(phi: MultiDiffCochain, psi: MultiDiffCochain) -> MultiDiffCochain:
    """The q/p-pairing product of cochain values, joining argument slots.

    The result has arity arity(phi) + arity(psi) and satisfies
    (phi . psi)(f.., g..) = phi(f..) . psi(g..) for the deformed product
    of the values.
    """
    if phi.n != psi.n or phi.K != psi.K:
        raise DimensionMismatch("cochain base mismatch")
    flat = propagate(phi.terms.items(), psi.terms.items(), WEYL_PAIRING,
                     _cochain_dq, _cochain_join, phi.K)
    return MultiDiffCochain._trusted((phi.n, phi.K, phi.arity + psi.arity), flat)


@functools.lru_cache(maxsize=None)
def _splittings(j: tuple, parts: int) -> tuple:
    """All ways to write the multi-index j as an ordered sum of `parts`
    multi-indices, as a tuple of (pieces, multinomial coefficient) pairs.

    Memoized: the result is immutable, and the keys are bounded by the
    multi-indices of total order <= K that the compositions meet."""
    if parts == 0:
        return (((), 1),) if not any(j) else ()
    per_dim = [list(exponents(parts, e)) for e in j]
    top = factorial(j)
    out = []
    for combo in itertools.product(*per_dim):
        pieces = tuple(zip(*combo))
        out.append((pieces, top // math.prod(map(factorial, pieces))))
    return tuple(out)


def compose_slot(phi: MultiDiffCochain, slot: int, inner: MultiDiffCochain) -> MultiDiffCochain:
    """Substitute the p- and lam-free cochain `inner` into one argument
    slot of phi, expanding derivatives of products into normal form."""
    if inner.n != phi.n or inner.K != phi.K:
        raise DimensionMismatch("cochain base mismatch")
    for (a, idx, _j, _e) in inner.terms:
        if a or any(idx):
            raise ValueError("inner cochain must have p- and lam-free values")
    if not 0 <= slot < phi.arity:
        raise IndexError("slot out of range")
    n, K = phi.n, phi.K
    m = inner.arity
    out: dict = {}
    inner_flat = [(avec, fexp, ic) for (_, _, avec, fexp), ic in inner.terms.items()]
    # Both tables are kept for one call only, since process-wide ones
    # raise the peak memory.  (j, fexp) -> the Leibniz splits of D^j on
    # q^fexp times the inner arguments: j0 <= j differentiates q^fexp with
    # weight binom(j, j0) falling(fexp, j0), leaves the q-exponent
    # fexp - j0 (None when zero), and the rest j - j0 splits over the
    # inner arguments
    leibniz: dict = {}
    # (inner derivative tuple, rest) -> the inner slots D^{avec_s + piece_s}
    # of each splitting of rest, with its multinomial
    slot_cache: dict = {}
    for (a, idx, jvec, exp), c in phi.terms.items():
        j = jvec[slot]
        head, tail = jvec[:slot], jvec[slot + 1:]
        for avec, fexp, ic in inner_flat:
            cc = c * ic
            rows = leibniz.get((j, fexp))
            if rows is None:
                rows = leibniz[(j, fexp)] = [
                    (binom(j, j0) * falling(fexp, j0), sub(fexp, j0) if j0 != fexp else None,
                     sub(j, j0)) for j0 in below(tuple(map(min, j, fexp)))]
            for weight, left, rest in rows:
                new_exp = exp if left is None else add(exp, left)
                slots = slot_cache.get((avec, rest))
                if slots is None:
                    slots = slot_cache[(avec, rest)] = [
                        (tuple(map(add, avec, pieces)), mult)
                        for pieces, mult in _splittings(rest, m)]
                for new_slots, mult in slots:
                    key = (a, idx, head + new_slots + tail, new_exp)
                    w = weight * mult
                    v = cc if w == 1 else cc * w
                    # every weight is nonzero, so no sum is written as zero
                    s = out.get(key)
                    if s is None:
                        out[key] = v
                    else:
                        s = s + v
                        if s:
                            out[key] = s
                        else:
                            del out[key]
    return MultiDiffCochain._trusted((n, K, phi.arity + m - 1), out)


def plug_constant(phi: MultiDiffCochain, slot: int) -> MultiDiffCochain:
    """Evaluate one argument slot at the constant function 1."""
    if not 0 <= slot < phi.arity:
        raise IndexError("slot out of range")
    return MultiDiffCochain._trusted((phi.n, phi.K, phi.arity - 1), {
        (a, idx, jvec[:slot] + jvec[slot + 1:], exp): c
        for (a, idx, jvec, exp), c in phi.terms.items() if not any(jvec[slot])})


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
        {key[2] for key in phi.terms},
        key=lambda jv: (sum(sum(j) for j in jv), jv),
    )
    for jvec in supports:
        args = [LambdaPoly(phi.n, 0, {(0, j): 1}) for j in jvec]
        val = phi.evaluate(args)
        if not val.is_zero():
            return args, val
    raise AssertionError("witness scan failed on a nonzero cochain")
