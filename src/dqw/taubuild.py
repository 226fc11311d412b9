"""Order-by-order construction of the multiplicative embedding into the
formal phase-space algebra.

For a validated star product the builder produces 1-cochains tau_0..tau_K,
with tau_0 the plain embedding f -> f and each tau_k homogeneous of
combined degree k, such that the error cochain

    eps(f, g) = tau(f * g) - tau(f) . tau(g)

vanishes identically in all combined degrees <= K (tau extended
lam-linearly, the dot being the deformed q/p-pairing product).  Stage k
reduces to one cohomological equation d(tau_k) = R_k with

    R_k(f,g) = sum_{i<k} lam^{k-i} tau_i(C_{k-i}(f,g))
               - sum_{0<i<k} tau_i(f) . tau_{k-i}(g),

where R_k is checked to be homogeneous of degree k.  Every tau_i is
homogeneous of degree i, so adding tau_k leaves the error in degrees
below k unchanged, and its degree-k component is exactly

    eps_k = R_k - d(tau_k)

with d the deformed coboundary.  So the stage equation carries no sign
to search for, and each stage checks only that one component, once: the
solver's certificate d(psi) = R_k is that
check when tau_k = psi, and it is recomputed only when tau_k is another
cochain.  For Hermitian star products each tau_k is replaced by its
Hermitian part (which solves the same stage equation); on every shipped
product psi is already Hermitian, and then tau_k is psi.  The
solvability preconditions of R_k (a cocycle with symmetric classical
limit) follow from a passed stage check, since d o d = 0 and the
classical part of d(psi) is symmetric; they are run only when a stage
fails, and then their witness names the reason.  After the last stage
the error is recomputed from the whole truncated tau in every degree
<= K (`check_multiplicative`), an independent certificate of the total;
the closed-form map of a constant bracket passes the same check.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import NoReturn

from .cobsolver import (CocyclePrecondition, check_solvability_preconditions,
                        solve_coboundary)
from .cochain import (MultiDiffCochain, coboundary, cochain_weyl_product, compose_slot,
                      identity_cochain, mu_cochain, plug_constant)
from .qpoly import group_terms
from .starspec import (InvalidStarProduct, StarProductSpec, antisymmetric_matrix,
                       digest_json, theta_powers)
from .terms import (DimensionMismatch, accumulate, add, add_terms, exponents, falling, sub,
                    zeros)
from .welement import LambdaPoly, WElement
from .weyl import ConsistencyError


class BuildAborted(RuntimeError):
    """A structural assertion failed during the staged construction."""


class StageReport(namedtuple("StageReport", "stage stage_term solver")):
    """One build stage: its number k, R_k as JSON, which is also the
    degree-k error of the previous prefix (None when R_k = 0), and the
    solver's report (None when R_k = 0 and tau_k = 0)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"stage": self.stage, "stage_term": self.stage_term,
                "solver": self.solver}


class BuildReport:
    __slots__ = ("n", "K", "hermitian", "spec_digest", "stages")

    def __init__(self, n: int, K: int, hermitian: bool, spec_digest: str):
        self.n = n
        self.K = K
        self.hermitian = hermitian
        self.spec_digest = spec_digest
        self.stages = []

    def to_json(self) -> dict:
        return {"n": self.n, "K": self.K, "hermitian": self.hermitian,
                "spec_digest": self.spec_digest,
                "stages": [s.to_json() for s in self.stages]}


class TauMap:
    """The built embedding: its components tau_0..tau_K."""

    __slots__ = ("n", "K", "components", "hermitian", "_total")

    def __init__(self, n, K, components, hermitian):
        components = tuple(components)
        if len(components) != K + 1:
            raise ValueError("need components for every degree 0..K")
        for k, c in enumerate(components):
            if c.arity != 1 or c.n != n:
                raise DimensionMismatch(f"component {k} has wrong shape")
            if not c.is_zero() and not c.is_homogeneous(k):
                raise ValueError(f"component {k} is not homogeneous of degree {k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "hermitian", hermitian)
        object.__setattr__(self, "_total", None)

    def __setattr__(self, name, value):
        raise AttributeError("TauMap is immutable")

    def total_cochain(self) -> MultiDiffCochain:
        """sum_k tau_k, built on first use and then kept, since the map is
        immutable; a run that never applies the map never builds it."""
        if self._total is None:
            out: dict = {}
            for c in self.components:
                add_terms(out, c.terms)
            object.__setattr__(self, "_total",
                               MultiDiffCochain._trusted((self.n, self.K, 1), out))
        return self._total

    def apply(self, f: LambdaPoly) -> WElement:
        """lam-linear application, truncated at combined degree K."""
        return self.total_cochain().evaluate([f])

    def classical_part(self) -> MultiDiffCochain:
        out: dict = {}
        for c in self.components:
            add_terms(out, c.classical_limit().terms)
        return MultiDiffCochain._trusted((self.n, self.K, 1), out)

    def __eq__(self, other):
        if not isinstance(other, TauMap):
            return NotImplemented
        return (self.n, self.K, self.hermitian) == (other.n, other.K, other.hermitian) \
            and self.components == other.components


class ClosedFormTau(TauMap):
    """The substitution embedding of a constant bracket matrix,
    f -> f(q^i - (1/2) sum_j theta^{ij} p_j), through combined degree K.

    Its components are the Taylor terms of the substitution,
    tau_k = ((-1/2)^k / k!) sum_{A, B} theta^{(k)}_{A,B} p^B D^A with
    theta^{(k)} the k-th tensor power of the bracket (`theta_powers`), so
    it is an ordinary TauMap: the map's order alone says how far a
    series built from it is exact.
    """

    __slots__ = ()

    def __init__(self, theta, K: int):
        theta = antisymmetric_matrix(theta)
        n = len(theta)
        components = [identity_cochain(n, K)]
        z = zeros(n)
        for k, power in enumerate(theta_powers(theta, K), start=1):
            scale = Fraction((-1) ** k, 2 ** k * math.factorial(k))
            components.append(MultiDiffCochain(n, K, 1, {
                (0, B, (A,), z): v * scale for (A, B), v in power.items()}))
        super().__init__(n, K, components, hermitian=True)

    # perfbench/tracer.py wraps the `apply` found in each class's own dict
    apply = TauMap.apply


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------

def _add_lambda_shifted(out: dict, terms: dict, r: int, K: int) -> None:
    """out += lam^r terms, in place, dropping the terms that land above
    combined degree K."""
    for (a, idx, jvec, exp), c in terms.items():
        if a + r + sum(idx) <= K:
            accumulate(out, (a + r, idx, jvec, exp), c)


def compute_Rk(spec: StarProductSpec, taus, k: int) -> MultiDiffCochain:
    """The inhomogeneous term of the stage-k equation, asserted to be
    homogeneous of degree k.  Its solvability preconditions (cocycle,
    symmetric classical limit) are checked by `build_tau` only when the
    stage fails (`_stage_failure`)."""
    K = taus[0].K
    terms: dict = {}
    for i in range(0, k):
        c = spec.cochain(k - i).retruncate(K)
        _add_lambda_shifted(terms, compose_slot(taus[i], 0, c).terms, k - i, K)
    for i in range(1, k):
        add_terms(terms, cochain_weyl_product(taus[i], taus[k - i]).terms, subtract=True)
    out = MultiDiffCochain._trusted((spec.n, K, 2), terms)
    if not out.is_zero() and not out.is_homogeneous(k):
        raise BuildAborted(f"stage-{k} term is not homogeneous of degree {k}")
    return out


def _stage_failure(rk: MultiDiffCochain, k: int, error: Exception) -> NoReturn:
    """Raise for a failed stage k: the precondition witness when R_k is
    not a cocycle or its classical limit is not symmetric, else `error`."""
    try:
        check_solvability_preconditions(rk)
    except CocyclePrecondition as e:
        raise BuildAborted(f"stage-{k} term: {e}") from e
    raise error


def epsilon_cochain(spec: StarProductSpec, taus, upto: int) -> MultiDiffCochain:
    """tau(f*g) - tau(f).tau(g) as an arity-2 cochain, with values
    truncated at combined degree `upto` (exact for all degrees <= upto)."""
    n = spec.n
    terms: dict = {}
    for c in taus:
        add_terms(terms, c.retruncate(upto).terms)
    total = MultiDiffCochain._trusted((n, upto, 1), terms)
    # the composition with mu is a fresh map, so it becomes the accumulator
    out = compose_slot(total, 0, mu_cochain(n, upto)).terms
    for r in range(1, min(spec.order, upto) + 1):
        # lam^r drops every term of degree above upto - r, so compose only the rest
        low = total.retruncate(upto - r).retruncate(upto)
        _add_lambda_shifted(out, compose_slot(low, 0, spec.cochain(r).retruncate(upto)).terms,
                            r, upto)
    add_terms(out, cochain_weyl_product(total, total).terms, subtract=True)
    return MultiDiffCochain._trusted((n, upto, 2), out)


def check_multiplicative(spec: StarProductSpec, taus, K: int) -> None:
    """The final certificate of an embedding, whichever route built it:
    the error of tau_0..tau_K vanishes in every degree <= K."""
    eps = epsilon_cochain(spec, taus[:K + 1], K)
    for d in range(K + 1):
        if not eps.component(d).is_zero():
            raise ConsistencyError(f"final error check failed in degree {d}")


def _solve_stage(rk: MultiDiffCochain, k: int, hermitian: bool):
    """tau_k with d(tau_k) = R_k, and the solver's report as JSON (None
    when R_k = 0 and so tau_k = 0).  Every failure exit goes through
    `_stage_failure`, so a violated precondition is reported with its
    witness."""
    if rk.is_zero():
        return MultiDiffCochain(rk.n, rk.K, 1), None
    if hermitian and rk.involution() != rk:
        _stage_failure(rk, k, BuildAborted(f"stage-{k} term is not Hermitian"))
    try:
        psi, solve_rep = solve_coboundary(rk)
    except (ConsistencyError, ValueError) as e:
        _stage_failure(rk, k, e)
    tau_k = psi.hermitian_part() if hermitian else psi
    # the stage check eps_k = R_k - d(tau_k) = 0, unless the solver's
    # certificate has proved it for this cochain
    if not solve_rep.certifies(rk, tau_k) and \
            not (rk - coboundary(tau_k, deformed=True)).is_zero():
        _stage_failure(rk, k, ConsistencyError(
            f"error check failed in degree {k} at stage {k}"))
    if not plug_constant(tau_k, 0).is_zero():
        raise BuildAborted(f"stage-{k} component does not vanish on constants")
    return tau_k, solve_rep.to_json()


def build_tau(spec: StarProductSpec, K: int):
    """Construct the embedding through combined degree K.  The star
    product is not validated here (that is `validate_star`): a product
    that is not associative shows as a stage term that is not a cocycle.

    Returns (TauMap, BuildReport).  Raises BuildAborted when a structural
    assertion fails, InvalidStarProduct when the product's order is below
    K, and ConsistencyError when a solver certificate or an error check
    fails.
    """
    if K > spec.order:
        raise InvalidStarProduct(
            f"cannot build to degree {K}: star product only supplied to order {spec.order}"
        )
    hermitian = spec.hermitian
    n = spec.n
    report = BuildReport(n=n, K=K, hermitian=hermitian, spec_digest=digest_json(spec.to_json()))
    taus = [identity_cochain(n, K)]
    for k in range(1, K + 1):
        rk = compute_Rk(spec, taus, k)
        tau_k, solver = _solve_stage(rk, k, hermitian)
        taus.append(tau_k)
        report.stages.append(StageReport(
            stage=k, stage_term=None if rk.is_zero() else rk.to_json(), solver=solver))

    check_multiplicative(spec, taus, K)
    if hermitian:
        for k, c in enumerate(taus):
            if c.involution() != c:
                raise ConsistencyError(f"component {k} is not Hermitian after build")
    return TauMap(n, K, taus, hermitian), report


# ---------------------------------------------------------------------------
# bracket realization check
# ---------------------------------------------------------------------------

def check_poisson_realization(tau: TauMap, spec: StarProductSpec,
                              K: int | None = None) -> dict:
    """Verify that the classical limit intertwines the star product's
    bracket with the canonical q/p bracket on the pairs of monomials of
    degree 1 and 2, through momentum degree K - 1 (K defaults to the
    map's order).  Returns the report {"ok", "checked_pairs",
    "violation"}, the violation naming the first failing pair or None.

    Both sides are antisymmetric and bilinear in the pair, so only the
    pairs (f, g) with f before g in the basis are checked; the first
    failing pair is the first failing ordered pair as well.  The bracket
    and the classical limit are read from tables of their terms, so the
    value of either on monomials is summed without evaluating the
    cochain; the gradients of each basis image are built once, and since
    the classical limit is linear, its image of a bracket is summed from
    the images of the bracket's monomials, each built once.  Each pair's
    difference is summed into one dict, over the terms the check reads
    only.
    """
    K = tau.K if K is None else K
    n = tau.n
    # the check reads lam-free terms of momentum degree <= K - 1; a
    # product of gradients is also truncated at the map's order
    top = min(tau.K, K - 1)
    # A term c lam^a p^I q^E D^J1 (x) D^J2 .. takes the monomials q^A,
    # q^B, .. to c falling(A, J1) falling(B, J2) .. lam^a p^I
    # q^(E - J1 - J2 .. + A + B ..), so each cochain is read as a table of
    # its derivative orders, E - their sum and its coefficient
    cl = [(jvec[0], sub(e, jvec[0]), (a, i), c)
          for (a, i, jvec, e), c in tau.classical_part().terms.items()]
    bracket = [(j1, j2, sub(e, add(j1, j2)), c)
               for (_a, _i, (j1, j2), e), c in spec.bracket().terms.items()]
    images: dict = {}  # q-exponent A -> cl(q^A)

    def image(A):
        img = images.get(A)
        if img is None:
            out: dict = {}
            for j, shift_e, (a, i), c in cl:
                w = falling(A, j)
                if w:
                    accumulate(out, (a, i, add(shift_e, A)), c * w)
            img = images[A] = WElement._trusted((n, tau.K), out)
        return img

    def read(x):
        return [(i, sum(i), e, c) for (a, i, e), c in x.terms.items()
                if not a and sum(i) <= top]

    def add_product(out, x, y, negate):
        """out += x y, or out -= x y, on the terms the check reads."""
        for i1, d1, e1, c1 in x:
            for i2, d2, e2, c2 in y:
                if d1 + d2 <= top:
                    v = c1 * c2
                    accumulate(out, (0, add(i1, i2), add(e1, e2)), -v if negate else v)

    exps = [e for t in (1, 2) for e in exponents(n, t)]
    grads = [([read(image(e).diff_q(k)) for k in range(n)],
              [read(image(e).diff_p(k)) for k in range(n)]) for e in exps]
    checked = 0
    for (A, (fq, fp)), (B, (gq, gp)) in itertools.combinations(zip(exps, grads), 2):
        # the bracket's value on (q^A, q^B), then its image minus the
        # canonical bracket of cl(q^A) and cl(q^B)
        value: dict = {}
        AB = add(A, B)
        for j1, j2, shift_e, c in bracket:
            w = falling(A, j1) * falling(B, j2)
            if w:
                accumulate(value, add(shift_e, AB), c * w)
        diff: dict = {}
        for e, c in value.items():
            for key, v in image(e).terms.items():
                if key[0] == 0 and sum(key[1]) <= K - 1:
                    accumulate(diff, key, v * c)
        for k in range(n):
            add_product(diff, fq[k], gp[k], True)
            add_product(diff, fp[k], gq[k], False)
        bad = group_terms(diff, n)
        checked += 1
        if bad:
            (_a, idx), poly = next(iter(bad.items()))
            f, g = (LambdaPoly(n, 0, {(0, e): 1}) for e in (A, B))
            return {"ok": False, "checked_pairs": checked,
                    "violation": f"pair ({f}, {g}): p-exponent {idx} differs by {poly}"}
    return {"ok": True, "checked_pairs": checked, "violation": None}
