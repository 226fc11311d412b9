"""User-facing star products: finite cochain lists with validation.

A star product is presented as bidifferential cochains C_1..C_K with
polynomial coefficients (no p or lam content), acting on the base
algebra as f * g = fg + sum_r lam^r C_r(f, g), together with a claimed
Hermitian flag and the antisymmetric bracket data.  The validator
checks, order by order and purely symbolically:

* associativity: sum_{i+j=m} C_i(C_j(f,g),h) - C_i(f,C_j(g,h)) = 0
  (with C_0 the pointwise product) for every m <= K;
* the first cochain's antisymmetric part equals i times the bracket;
* the Hermitian condition conj(f*g) = conj(g)*conj(f) when claimed;
* unitality C_r(1,.) = C_r(.,1) = 0 for r >= 1.

Violations are reported, not raised, with the first failing order and a
witness argument tuple.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

try:
    # importing hashlib maps and initializes OpenSSL's libcrypto, the largest
    # part of a process's import-time memory, so take CPython's own SHA-256
    # first, as random.py does for _sha512
    from _sha256 import sha256 as _sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256 as _sha256

from .cobsolver import solve_classical_coboundary
from .cochain import (MultiDiffCochain, coboundary, compose_slot, find_witness, mu_cochain,
                      plug_constant, swap)
from .qpoly import group_terms
from .rationals import HALF_I, I
from .terms import DimensionMismatch, accumulate, add_terms, shift, unit, zeros
from .welement import LambdaPoly


class InvalidStarProduct(ValueError):
    """A star product failed validation where a valid one is required."""


class StarProductSpec(namedtuple("StarProductSpec", "n order hermitian cochains theta",
                                 defaults=(None,))):
    """C_1..C_order as arity-2 MultiDiffCochains, and the constant
    antisymmetric bracket matrix theta when known."""

    __slots__ = ()

    def __new__(cls, n: int, order: int, hermitian: bool, cochains: tuple,
                theta: tuple | None = None):
        if len(cochains) != order:
            raise ValueError("need exactly `order` cochains")
        for r, c in enumerate(cochains, start=1):
            if c.arity != 2 or c.n != n:
                raise DimensionMismatch(f"cochain {r} has wrong shape")
            for (a, idx, _j, _e) in c.terms:
                if a or any(idx):
                    raise ValueError(f"cochain {r} must be p- and lam-free")
        return super().__new__(cls, n, order, hermitian, cochains, theta)

    def cochain(self, r: int) -> MultiDiffCochain:
        """C_r for r in 1..order (zero cochain beyond the stored list)."""
        if r < 1:
            raise IndexError("cochain index starts at 1")
        if r > self.order:
            return MultiDiffCochain(self.n, self.order, 2)
        return self.cochains[r - 1]

    # ---- bracket data ----

    def bracket(self) -> MultiDiffCochain:
        """The Poisson bracket sum_{k,l} theta^{kl} D_k (x) D_l as a 2-cochain.

        Built from the stored constant matrix when present, otherwise
        the antisymmetric part of C_1 divided by i, which must be a real
        biderivation.
        """
        n = self.n
        if self.theta is not None:
            z = zeros(n)
            return MultiDiffCochain(n, self.order, 2, {
                (0, z, (unit(n, k), unit(n, l)), z): self.theta[k][l]
                for k in range(n) for l in range(n)})
        c1 = self.cochain(1)
        bracket = (c1 - swap(c1)).scale(-I)
        for (_a, _idx, (j1, j2), _exp), c in bracket.terms.items():
            if sum(j1) != 1 or sum(j2) != 1:
                raise InvalidStarProduct(
                    "antisymmetric part of the first cochain is not a biderivation"
                )
            if not c.is_real():
                raise InvalidStarProduct("bracket coefficients are not real")
        return bracket

    # ---- canonical JSON (schema is part of the external interface) ----

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "hermitian": self.hermitian,
            "theta": (
                [[str(x) for x in row] for row in self.theta]
                if self.theta is not None else None
            ),
            "cochains": [
                {
                    "lambda_power": r,
                    "terms": [
                        {"coeff_poly": poly.to_json(), "derivs": [list(j) for j in key[2]]}
                        for key, poly in group_terms(self.cochains[r - 1].terms, self.n).items()
                    ],
                }
                for r in range(1, self.order + 1)
            ],
        }


def digest_json(obj) -> str:
    """The SHA-256 hex digest of obj as compact JSON with sorted keys:
    a report's scenario `digest` and build `spec_digest`."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def antisymmetric_matrix(theta) -> tuple:
    """theta as a square antisymmetric tuple of Fraction rows (ValueError
    otherwise)."""
    theta = tuple(tuple(Fraction(x) for x in row) for row in theta)
    n = len(theta)
    for row in theta:
        if len(row) != n:
            raise ValueError("theta must be square")
    for k in range(n):
        for l in range(n):
            if theta[k][l] != -theta[l][k]:
                raise ValueError("theta must be antisymmetric")
    return theta


def theta_powers(theta, K: int):
    """The tensor powers of a constant bracket: for r = 1..K, the dict
    (A, B) -> sum of theta^{k1 l1} .. theta^{kr lr} over the index choices
    with e_k1 + .. + e_kr = A and e_l1 + .. + e_lr = B."""
    n = len(theta)
    pairs = [
        (k, l, theta[k][l]) for k in range(n) for l in range(n) if theta[k][l]
    ]
    z = zeros(n)
    power = {(z, z): Fraction(1)}
    for _ in range(K):
        nxt: dict = {}
        for (A, B), c in power.items():
            for (k, l, v) in pairs:
                accumulate(nxt, (shift(A, k, 1), shift(B, l, 1)), c * v)
        power = nxt
        yield power


def make_constant_theta_star(theta, K: int) -> StarProductSpec:
    """The exponential star product of a constant antisymmetric matrix:
    C_r = (1/r!) (i/2)^r theta^{k1 l1} .. theta^{kr lr} D_{k..} (x) D_{l..}.
    """
    theta = antisymmetric_matrix(theta)
    n = len(theta)
    z = zeros(n)
    cochains = []
    for r, power in enumerate(theta_powers(theta, K), start=1):
        scale = HALF_I ** r * Fraction(1, math.factorial(r))
        cochains.append(MultiDiffCochain(n, K, 2, {
            (0, z, (A, B), z): scale * v for (A, B), v in power.items()}))
    return StarProductSpec(n=n, order=K, hermitian=True,
                           cochains=tuple(cochains), theta=theta)


def make_zero_star(n: int, K: int) -> StarProductSpec:
    return make_constant_theta_star([[0] * n for _ in range(n)], K)


def make_linear_poisson_2d_star(K: int) -> StarProductSpec:
    """A star product for the bracket {x, y} = x on the plane.

    C_1 is (i/2) times the bracket biderivation; each higher C_r is the
    closed-form solve of the order-r associativity constraint (a
    normalized classical arity-3 equation, always solvable in two
    dimensions, where no antisymmetric obstruction exists), then
    replaced by its Hermitian part, certified to solve the same
    equation.  So every C_i is Hermitian, and the constraint's defect is
    A - A* with A the sum of the compositions C_i(C_j(f, g), h).  At
    K = 0 the product has no cochains.
    """
    n = 2
    z = zeros(n)
    cochains = []
    if K >= 1:
        cochains.append(MultiDiffCochain(n, K, 2, {(0, z, ((1, 0), (0, 1)), (1, 0)): HALF_I,
                                                   (0, z, ((0, 1), (1, 0)), (1, 0)): -HALF_I}))
    for r in range(2, K + 1):
        terms: dict = {}
        for i in range(1, r):
            add_terms(terms, compose_slot(cochains[i - 1], 0, cochains[r - i - 1]).terms)
        left = MultiDiffCochain._trusted((n, K, 3), terms)
        defect = left - left.involution()
        cr = solve_classical_coboundary(defect)
        if cr is None:
            raise InvalidStarProduct(
                f"order-{r} associativity constraint unexpectedly unsolvable"
            )
        herm = cr.hermitian_part()
        # hermitian_part returns cr itself when it is Hermitian, and the
        # solver has certified d0(cr) = defect
        if herm is not cr and coboundary(herm, deformed=False) != defect:
            raise InvalidStarProduct(
                f"order-{r} associativity constraint: the Hermitian part of "
                "its solution does not solve it")
        cochains.append(herm)
    return StarProductSpec(n=n, order=K, hermitian=True,
                           cochains=tuple(cochains), theta=None)


def perturb_cochain(spec: StarProductSpec, r: int,
                    extra: MultiDiffCochain) -> StarProductSpec:
    """A copy of the spec with C_r shifted; used for negative fixtures."""
    cochains = list(spec.cochains)
    cochains[r - 1] = cochains[r - 1] + extra
    return StarProductSpec(n=spec.n, order=spec.order, hermitian=spec.hermitian,
                           cochains=tuple(cochains), theta=spec.theta)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _witness_str(cochain: MultiDiffCochain) -> str:
    got = find_witness(cochain)
    if got is None:
        return ""
    args, val = got
    return f"args ({', '.join(str(a) for a in args)}) -> {val}"


def _first_failure(name: str, cases) -> dict:
    """The check `name`, failed at the first of the lazily generated
    cases (order, cochain, witness prefix) whose cochain is nonzero."""
    for order, cochain, prefix in cases:
        if not cochain.is_zero():
            return {"name": name, "ok": False, "order": order,
                    "witness": prefix + _witness_str(cochain)}
    return {"name": name, "ok": True}


def _associator(spec: StarProductSpec, mu: MultiDiffCochain, m: int,
                hermitian: bool) -> MultiDiffCochain:
    """A - B with A = sum_{i+j=m} C_i(C_j(f,g),h), B = sum C_i(f,C_j(g,h))
    and C_0 = mu.  For Hermitian C_0..C_m, B = A*: C_i(f, C_j(g,h)) =
    conj C_i(C_j(h~,g~), f~), so each pair (i, j) is composed once."""
    def cr(r):
        return mu if r == 0 else spec.cochain(r)

    terms: dict = {}
    for i in range(0, m + 1):
        add_terms(terms, compose_slot(cr(i), 0, cr(m - i)).terms)
        if not hermitian:
            add_terms(terms, compose_slot(cr(i), 1, cr(m - i)).terms, subtract=True)
    out = MultiDiffCochain._trusted((spec.n, spec.order, 3), terms)
    if not hermitian:
        return out
    # A = A* key by key, as the involution maps the keys one to one; for an
    # associative product it holds, so A - A* is formed only on failure.
    # The conjugate of the reduced triple (x, y, d) of a scalar is (x, -y, d).
    for (a, idx, jvec, exp), c in terms.items():
        mirror = terms.get((a, idx, jvec[::-1], exp))
        x, y, d = c._t
        if mirror is None or mirror._t != (x, -y, d):
            return out - out.involution()
    return out._new({})


def validate_star(spec: StarProductSpec, K: int | None = None) -> dict:
    """Run all symbolic checks up to order K (default: the spec order).
    Returns the report {"ok", "checks"}, one check {"name", "ok"} per
    condition, with "order" and "witness" where it failed.  The
    Hermitian defects are computed first; when the product is Hermitian
    through K, the associator takes one composition per pair."""
    K = spec.order if K is None else min(K, spec.order)
    mu = mu_cochain(spec.n, spec.order)
    orders = range(1, K + 1)
    defects = [(r, spec.cochain(r).involution() - spec.cochain(r), "")
               for r in orders] if spec.hermitian else []
    hermitian = spec.hermitian and all(d.is_zero() for _r, d, _p in defects)
    checks = [_first_failure("associativity", (
        (m, _associator(spec, mu, m, hermitian), "") for m in orders))]

    if spec.order >= 1:
        c1 = spec.cochain(1)
        try:
            checks.append(_first_failure("first_order_bracket", [
                (1, c1 - swap(c1) - spec.bracket().scale(I), "")]))
        except InvalidStarProduct as e:
            checks.append({"name": "first_order_bracket", "ok": False, "order": 1,
                           "witness": str(e)})

    if spec.hermitian:
        checks.append(_first_failure("hermitian", defects))

    checks.append(_first_failure("unitality", (
        (r, plug_constant(spec.cochain(r), slot), f"slot {slot}: ")
        for r in orders for slot in (0, 1))))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# applying a star product to base lam-series
# ---------------------------------------------------------------------------

def star_apply(spec: StarProductSpec, f: LambdaPoly, g: LambdaPoly) -> LambdaPoly:
    """f * g = fg + sum_r lam^r C_r(f, g), extended lam-bilinearly."""
    if f.n != spec.n or g.n != spec.n:
        raise DimensionMismatch("operand dimension mismatch")
    if f.K != g.K:
        raise DimensionMismatch("operand truncation mismatch")
    K = f.K
    out = dict((f * g).terms)
    for r in range(1, min(spec.order, K) + 1):
        for (a, idx, e), c in spec.cochain(r).retruncate(K - r).evaluate([f, g]).terms.items():
            if any(idx):
                raise ValueError("cochain value unexpectedly leaves the base algebra")
            accumulate(out, (a + r, e), c)
    return f._new(out)
