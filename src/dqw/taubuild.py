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

where R_k is checked to be a homogeneous cocycle with symmetric
classical limit before solving.  Every tau_i is homogeneous of degree i,
so adding tau_k leaves the error in degrees below k unchanged, and its
degree-k component is exactly

    eps_k = R_k - d(tau_k)

with d the deformed coboundary.  So the stage equation carries no sign
to search for (the reports record it as +1), and each stage checks only
that one component.  For Hermitian star products each tau_k is
replaced by its Hermitian part (which solves the same stage equation)
before that check.  After the last stage the error is recomputed from
the whole truncated tau in every degree <= K, an independent
certificate of the total.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cobsolver import (CocyclePrecondition, check_solvability_preconditions,
                        solve_coboundary)
from .cochain import (MultiDiffCochain, coboundary, cochain_weyl_product,
                      compose_slot, identity_cochain, mu_cochain, plug_constant)
from .qpoly import DimensionMismatch, QPolynomial
from .starspec import (InvalidStarProduct, StarProductSpec, antisymmetric_matrix,
                       theta_powers)
from .terms import exponents
from .welement import LambdaPoly, WElement
from .weyl import ConsistencyError, canonical_bracket


class BuildAborted(RuntimeError):
    """A structural assertion failed during the staged construction."""


@dataclass
class StageReport:
    stage: int
    stage_term: dict | None       # R_k, which is also the degree-k error of
                                  # the previous prefix (no tau_k added yet)
    cl_symmetric: bool
    sign: int | None
    hermitized: bool
    solver: dict | None
    epsilon_checked_to: int

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "stage_term": self.stage_term,
            "cl_symmetric": self.cl_symmetric,
            "sign": self.sign,
            "hermitized": self.hermitized,
            "solver": self.solver,
            "epsilon_checked_to": self.epsilon_checked_to,
        }


@dataclass
class BuildReport:
    n: int
    K: int
    hermitian: bool
    sign: int | None
    spec_digest: str
    stages: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "hermitian": self.hermitian,
            "sign": self.sign,
            "spec_digest": self.spec_digest,
            "stages": [s.to_json() for s in self.stages],
        }


def spec_digest(spec: StarProductSpec) -> str:
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TauMap:
    """The built embedding: its components tau_0..tau_K."""

    __slots__ = ("n", "K", "components", "hermitian")

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

    def __setattr__(self, name, value):
        raise AttributeError("TauMap is immutable")

    def total_cochain(self) -> MultiDiffCochain:
        out = MultiDiffCochain.zero(self.n, self.K, 1)
        for c in self.components:
            out = out + c
        return out

    def apply(self, f: LambdaPoly) -> WElement:
        """lam-linear application, truncated at combined degree K."""
        if f.n != self.n:
            raise DimensionMismatch("argument dimension mismatch")
        total = self.total_cochain()
        out = WElement.zero(self.n, self.K)
        for r, poly in f.terms.items():
            if r > self.K:
                continue
            val = total.evaluate([poly])
            out = out + _shift_lam(val, r)
        return out

    def classical_part(self) -> MultiDiffCochain:
        out = MultiDiffCochain.zero(self.n, self.K, 1)
        for c in self.components:
            out = out + c.classical_limit()
        return out

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
        for k, power in enumerate(theta_powers(theta, K), start=1):
            scale = Fraction((-1) ** k, 2 ** k * math.factorial(k))
            components.append(MultiDiffCochain(n, K, 1, {
                (0, B, (A,)): QPolynomial.constant(n, v * scale)
                for (A, B), v in power.items()}))
        super().__init__(n, K, components, hermitian=True)

    # perfbench/tracer.py wraps the `apply` found in each class's own dict
    apply = TauMap.apply


def _shift_lam(w: WElement, r: int) -> WElement:
    if r == 0:
        return w
    return WElement(w.n, w.K, {(a + r, idx): p for (a, idx), p in w.terms.items()})


# ---------------------------------------------------------------------------
# stage machinery
# ---------------------------------------------------------------------------

def compute_Rk(spec: StarProductSpec, taus, k: int) -> MultiDiffCochain:
    """The inhomogeneous term of the stage-k equation, with structural
    assertions (homogeneity, cocycle, symmetric classical limit)."""
    n = spec.n
    K = taus[0].K
    out = MultiDiffCochain.zero(n, K, 2)
    for i in range(0, k):
        c = spec.cochain(k - i).retruncate(K)
        out = out + compose_slot(taus[i], 0, c).scale_lambda(k - i)
    for i in range(1, k):
        out = out - cochain_weyl_product(taus[i], taus[k - i])
    if not out.is_zero():
        if not out.is_homogeneous(k):
            raise BuildAborted(f"stage-{k} term is not homogeneous of degree {k}")
        try:
            check_solvability_preconditions(out)
        except CocyclePrecondition as e:
            raise BuildAborted(f"stage-{k} term: {e}") from e
    return out


def epsilon_cochain(spec: StarProductSpec, taus, upto: int) -> MultiDiffCochain:
    """tau(f*g) - tau(f).tau(g) as an arity-2 cochain, with values
    truncated at combined degree `upto` (exact for all degrees <= upto)."""
    n = spec.n
    total = MultiDiffCochain.zero(n, upto, 1)
    for c in taus:
        total = total + c.retruncate(upto)
    out = compose_slot(total, 0, mu_cochain(n, upto))
    for r in range(1, min(spec.order, upto) + 1):
        # lam^r drops every term of degree above upto - r, so compose only the rest
        low = total.retruncate(upto - r).retruncate(upto)
        out = out + compose_slot(low, 0, spec.cochain(r).retruncate(upto)).scale_lambda(r)
    out = out - cochain_weyl_product(total, total)
    return out


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
    report = BuildReport(
        n=n, K=K, hermitian=hermitian, sign=None,
        spec_digest=spec_digest(spec),
    )
    taus = [identity_cochain(n, K)]
    for k in range(1, K + 1):
        rk = compute_Rk(spec, taus, k)
        if rk.is_zero():
            taus.append(MultiDiffCochain.zero(n, K, 1))
            report.stages.append(StageReport(
                stage=k, stage_term=None, cl_symmetric=True, sign=report.sign,
                hermitized=False, solver=None, epsilon_checked_to=k))
            continue
        if hermitian and rk.involution() != rk:
            raise BuildAborted(f"stage-{k} term is not Hermitian")
        # compute_Rk has already checked the cocycle and classical-limit
        # preconditions, with witnesses
        psi, solve_rep = solve_coboundary(rk)
        cand = psi.hermitian_part() if hermitian else psi
        if not (rk - coboundary(cand, deformed=True)).is_zero():
            raise ConsistencyError(f"error check failed in degree {k} at stage {k}")
        report.sign = 1
        if not plug_constant(cand, 0).is_zero():
            raise BuildAborted(f"stage-{k} component does not vanish on constants")
        taus.append(cand)
        report.stages.append(StageReport(
            stage=k, stage_term=rk.to_json(), cl_symmetric=True, sign=1,
            hermitized=hermitian, solver=solve_rep.to_json(),
            epsilon_checked_to=k))

    # final exactness check of every degree <= K at once
    eps = epsilon_cochain(spec, taus, K)
    for d in range(K + 1):
        if not eps.component(d).is_zero():
            raise ConsistencyError(f"final error check failed in degree {d}")
    if hermitian:
        for k, c in enumerate(taus):
            if c.involution() != c:
                raise ConsistencyError(f"component {k} is not Hermitian after build")
    return TauMap(n, K, taus, hermitian), report


# ---------------------------------------------------------------------------
# bracket realization check
# ---------------------------------------------------------------------------

@dataclass
class RealizationReport:
    ok: bool
    checked_pairs: int
    violation: str | None = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "checked_pairs": self.checked_pairs,
                "violation": self.violation}


def check_poisson_realization(tau: TauMap, spec: StarProductSpec,
                              K: int | None = None) -> RealizationReport:
    """Verify that the classical limit intertwines the star product's
    bracket with the canonical q/p bracket on the pairs of monomials of
    degree 1 and 2, through momentum degree K - 1 (K defaults to the
    map's order).

    Both sides are antisymmetric and bilinear in the pair, so only the
    pairs (f, g) with f before g in the basis are checked; the first
    failing pair is the first failing ordered pair as well.
    """
    K = tau.K if K is None else K
    cl = tau.classical_part()
    basis = [QPolynomial.monomial(tau.n, e)
             for t in (1, 2) for e in exponents(tau.n, t)]
    images = [cl.evaluate([f]) for f in basis]
    checked = 0
    for (f, f_image), (g, g_image) in itertools.combinations(zip(basis, images), 2):
        diff = cl.evaluate([spec.poisson_bracket(f, g)]) - canonical_bracket(f_image, g_image)
        bad = {
            key: p for key, p in diff.terms.items()
            if key[0] == 0 and sum(key[1]) <= K - 1
        }
        checked += 1
        if bad:
            key = sorted(bad)[0]
            return RealizationReport(
                ok=False, checked_pairs=checked,
                violation=f"pair ({f}, {g}): p-exponent {key[1]} "
                          f"differs by {bad[key]}")
    return RealizationReport(ok=True, checked_pairs=checked)
