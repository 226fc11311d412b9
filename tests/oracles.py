"""Reference implementations that only the tests use.

* The Weyl/Wick intertwining check on an explicit pair of elements,
  independent of the symbol certificate in `dqw.weyl`.
* Forms in the momentum differentials dp_i (`KoszulForm`), their
  exterior derivative d_p and the weighted Euler-contraction homotopy h
  of the momentum Koszul complex, with d_p h + h d_p = id on forms of
  degree >= 1.  The solver computes its axial potential on plain term
  dicts (`cobsolver._axial_potential`); these are the reference it is
  checked against.
* The bracket-realization check pair by pair, evaluating both sides of
  every pair from scratch through the spec's Poisson bracket
  (`poisson_bracket`, term by term from `StarProductSpec.bracket`);
  `taubuild.check_poisson_realization` shares the basis images, their
  gradients and the monomial images instead.
* The lam-shift of a base lam-series and of a graded term map.
* The lam-linear extensions written out one lam-power at a time:
  a cochain's value, the star product and the embedding's application
  as sums over the lam-coefficients of their arguments, each evaluated
  lam-free and shifted by its lam-power; `MultiDiffCochain.evaluate`
  takes lam-series arguments in one pass instead.
* The associativity check with both sides of every associator composed;
  `starspec.validate_star` takes the second side as the involution of
  the first when the product is Hermitian.
* The deformed products of phase-space elements and of element
  matrices, the q/p- and z/zbar-pairing products through the shared
  `weyl.propagate` kernel; the pipeline multiplies cochain values only
  (`cochain.cochain_weyl_product`).  With them: the canonical bracket,
  the lift `pi_star` of a base series, the chart map `iota_star`
  (momenta set to zero), the operator exp(sigma lam Lap) as the iterated
  Laplacian series on elements and matrices (`fock_equivalence`) and the
  grading operator (`degree_image`).  The series at a lifted order
  followed by `iota_star` is the reference for the pipeline's closed
  form `weyl.exp_laplace_exact` (`zero_momentum_reference`).
* The action of a functional entry by entry (`per_entry_action`): a
  deformed functional pushes each entry through tau and
  `weyl.exp_laplace_exact`, then every entry is evaluated at each atom
  (`evaluate`, `eval_matrix_series`); `dqw.functionals` sums the
  functional's moment table instead.
* The Wick positivity certificate: Omega_0(A~ . A) for the z/zbar
  product and a lam-free matrix A, exhibited coefficientwise as sums of
  squared moduli of zbar-derivative evaluations.
* The build kernels `weyl.propagate`, `cochain.compose_slot` and
  `cochain.coboundary` without their per-call tables, every per-term
  quantity recomputed where it is used (`propagate_reference`,
  `compose_slot_reference`, `coboundary_reference`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from dqw import cochain, weyl
from dqw.cochain import MultiDiffCochain, compose_slot, find_witness, mu_cochain
from dqw.functionals import DeformedFunctional
from dqw.qpoly import DimensionMismatch, group_terms
from dqw.rationals import I, ONE, ZERO, GaussianRational, _coerce
from dqw.terms import (SquareMatrix, TermMap, accumulate, add, below, binom, exponents,
                       factorial, falling, shift, sub, zeros)
from dqw.welement import LambdaPoly, NonRealSeries, WElement
from dqw.weyl import WEYL_PAIRING, WICK_PAIRING, propagate, resolve_fock_sign


def monomial_basis(n: int, total_degree: int):
    """All monomials lam^a p^I q^E with a + |I| + |E| <= total_degree."""
    out = []
    for d in range(total_degree + 1):
        for a in range(d + 1):
            for ptot in range(d - a + 1):
                for pi in exponents(n, ptot):
                    for qe in exponents(n, d - a - ptot):
                        out.append((a, pi, qe))
    return out


def exact_order_for_pair(a: WElement, b: WElement) -> int:
    """A truncation order at which all intermediate results of the
    intertwining check are computed without dropping any term."""
    def budget(x):
        m = 0
        for la, idx, exp in x.terms:
            m = max(m, la + 2 * (sum(idx) + sum(exp)))
        return m
    return budget(a) + budget(b) + 2


def check_sign_on_pair(sign: int, a: WElement, b: WElement) -> bool:
    K = exact_order_for_pair(a, b)
    a = a.retruncate(K)
    b = b.retruncate(K)
    lhs = exp_laplace(wick_product(a, b), sign, K)
    rhs = weyl_product(exp_laplace(a, sign, K), exp_laplace(b, sign, K))
    return lhs == rhs


class KoszulForm(TermMap):
    """A degree-k form in the momentum differentials: a sum of terms
    c * p^I * q^E * dp_{i_1} ^ ... ^ dp_{i_k} with i_1 < ... < i_k, stored
    as the scalar c under the key (I, (i_1, .., i_k), E).  Antisymmetry
    is structural: index sets are kept sorted, signs normalized away."""

    __slots__ = ("n", "degree")
    _SHAPE = ("n", "degree")

    def __init__(self, n: int, degree: int, terms=None):
        """terms maps (I, sel, E) to a scalar."""
        if degree < 0:
            raise ValueError("form degree must be non-negative")
        if degree > n and terms:
            raise ValueError(f"nonzero form of degree {degree} impossible for n={n}")
        clean: dict = {}
        for (idx, sel, exp), c in (terms or {}).items():
            sel = tuple(sel)
            if len(sel) != degree or list(sel) != sorted(set(sel)):
                raise ValueError(f"index set {sel} must be strictly increasing")
            if any(not 0 <= i < n for i in sel) or len(idx) != n or len(exp) != n:
                raise DimensionMismatch("bad index data")
            accumulate(clean, (tuple(idx), sel, tuple(exp)), _coerce(c))
        self._init((n, degree), clean)

    @classmethod
    def zero(cls, n: int, degree: int) -> "KoszulForm":
        return cls(n, degree)


def d_p(omega: KoszulForm) -> KoszulForm:
    """Exterior derivative in the p variables."""
    n = omega.n
    out: dict = {}
    for (idx, sel, exp), c in omega.terms.items():
        for j in range(n):
            if not idx[j] or j in sel:
                continue
            pos = sum(1 for i in sel if i < j)
            sign = -1 if pos % 2 else 1
            newsel = tuple(sorted(sel + (j,)))
            accumulate(out, (shift(idx, j, -1), newsel, exp), c * (sign * idx[j]))
    return KoszulForm(n, omega.degree + 1, out)


def euler_contraction(omega: KoszulForm) -> KoszulForm:
    """Interior product with the Euler field sum_i p_i d/dp_i."""
    out: dict = {}
    for (idx, sel, exp), c in omega.terms.items():
        for m, i in enumerate(sel):
            sign = -1 if m % 2 else 1
            accumulate(out, (shift(idx, i, 1), sel[:m] + sel[m + 1:], exp), c * sign)
    return KoszulForm(omega.n, omega.degree - 1, out)


def poincare_homotopy(omega: KoszulForm) -> KoszulForm:
    """The weighted Euler contraction h with d_p h + h d_p = id for
    forms of degree >= 1.  Acts termwise on p-homogeneous pieces with
    weight 1 / (|I| + k)."""
    if omega.degree < 1:
        raise ValueError("homotopy requires form degree >= 1")
    k = omega.degree
    out = KoszulForm.zero(omega.n, k - 1)
    for (idx, sel, exp), c in omega.terms.items():
        piece = KoszulForm(omega.n, k, {(idx, sel, exp): c})
        w = sum(idx) + k
        contracted = euler_contraction(piece)
        out = out + contracted.scale(Fraction(1, w))
    return out


def poisson_bracket(spec, f: LambdaPoly, g: LambdaPoly) -> LambdaPoly:
    """{f, g} = sum_{k,l} theta^{kl} D_k f D_l g for the spec's bracket,
    one product of derivatives per term of its cochain."""
    out = LambdaPoly(spec.n, f.K)
    for (_a, _idx, (jk, jl), e), c in spec.bracket().terms.items():
        out = out + LambdaPoly(spec.n, f.K, {(0, e): c}) * f.derivative(jk) * g.derivative(jl)
    return out


def shift_lam(f: LambdaPoly, r: int) -> LambdaPoly:
    """lam^r f, truncated at f's order."""
    return LambdaPoly(f.n, f.K, {(s + r, e): c for (s, e), c in f.terms.items()})


def scale_lambda(x, r: int):
    """lam^r x for a graded term map x (an element or a cochain), dropping
    the terms beyond its truncation."""
    low = x.retruncate(x.K - r).terms
    return x._new({(k[0] + r,) + k[1:]: v for k, v in low.items()})


def lam_coefficients(f: LambdaPoly) -> dict:
    """r -> the lam^r coefficient of f, as a lam-free series."""
    out: dict = {}
    for (r, e), c in f.terms.items():
        out.setdefault(r, {})[(0, e)] = c
    return {r: LambdaPoly(f.n, f.K, t) for r, t in sorted(out.items())}


def evaluate_per_order(phi: MultiDiffCochain, args) -> WElement:
    """phi(f_1..f_k) summed over one lam-coefficient per argument: phi on
    those lam-free coefficients, shifted by the sum of their lam-powers."""
    out = WElement(phi.n, phi.K)
    for combo in itertools.product(*(lam_coefficients(f).items() for f in args)):
        r = sum(s for s, _ in combo)
        if r <= phi.K:
            out = out + scale_lambda(phi.evaluate([x for _, x in combo]), r)
    return out


def star_apply_by_lam_pairs(spec, f: LambdaPoly, g: LambdaPoly) -> LambdaPoly:
    """f * g = fg + sum_r lam^r C_r(f, g) over the pairs of lam-coefficients
    of f and g, each C_r evaluated on a lam-free pair."""
    K = f.K
    out: dict = {}
    for r1, fp in lam_coefficients(f).items():
        for r2, gp in lam_coefficients(g).items():
            if r1 + r2 > K:
                continue
            for (_s, e), c in (fp * gp).terms.items():
                accumulate(out, (r1 + r2, e), c)
            for r in range(1, min(spec.order, K - r1 - r2) + 1):
                for (a, idx, e), c in spec.cochain(r).evaluate([fp, gp]).terms.items():
                    assert a == 0 and not any(idx)
                    accumulate(out, (r1 + r2 + r, e), c)
    return LambdaPoly(spec.n, K, out)


def tau_apply_per_order(tau, f: LambdaPoly) -> WElement:
    """tau(f) as sum_r lam^r tau(f_r) over the lam-coefficients f_r of f,
    truncated at combined degree tau.K."""
    total = tau.total_cochain()
    out = WElement(tau.n, tau.K)
    for r, fr in lam_coefficients(f).items():
        if r <= tau.K:
            out = out + scale_lambda(total.evaluate([fr]), r)
    return out


def realization_per_pair(tau, spec, K=None) -> dict:
    """The bracket-realization check over the unordered pairs of the
    degree-1 and degree-2 monomials, with each pair's sides computed on
    their own: cl({f, g}_spec) against the canonical bracket of cl(f)
    and cl(g), through momentum degree K - 1."""
    K = tau.K if K is None else K
    cl = tau.classical_part()
    basis = [LambdaPoly(tau.n, 0, {(0, e): 1})
             for t in (1, 2) for e in exponents(tau.n, t)]
    images = [cl.evaluate([f]) for f in basis]
    checked = 0
    for (f, f_image), (g, g_image) in itertools.combinations(zip(basis, images), 2):
        diff = cl.evaluate([poisson_bracket(spec, f, g)]) - canonical_bracket(f_image, g_image)
        bad = group_terms({key: c for key, c in diff.terms.items()
                           if key[0] == 0 and sum(key[1]) <= K - 1}, tau.n)
        checked += 1
        if bad:
            (_a, idx), poly = next(iter(bad.items()))
            return {"ok": False, "checked_pairs": checked,
                    "violation": f"pair ({f}, {g}): p-exponent {idx} differs by {poly}"}
    return {"ok": True, "checked_pairs": checked, "violation": None}


def two_sided_associator(spec, m: int) -> MultiDiffCochain:
    """sum_{i+j=m} C_i(C_j(f,g),h) - C_i(f,C_j(g,h)) with C_0 the
    pointwise product, composing both sides of every pair."""
    def cr(r):
        return mu_cochain(spec.n, spec.order) if r == 0 else spec.cochain(r)

    out = MultiDiffCochain(spec.n, spec.order, 3)
    for i in range(m + 1):
        out = out + compose_slot(cr(i), 0, cr(m - i)) - compose_slot(cr(i), 1, cr(m - i))
    return out


def associativity_two_sided(spec, K=None) -> dict:
    """The associativity entry of `validate_star` from the two-sided
    associator: the first failing order and its witness."""
    K = spec.order if K is None else min(K, spec.order)
    for m in range(1, K + 1):
        got = find_witness(two_sided_associator(spec, m))
        if got is not None:
            args, val = got
            return {"name": "associativity", "ok": False, "order": m,
                    "witness": f"args ({', '.join(map(str, args))}) -> {val}"}
    return {"name": "associativity", "ok": True}


# ---------------------------------------------------------------------------
# products of phase-space elements
# ---------------------------------------------------------------------------

class MatrixWElement(SquareMatrix):
    """A square matrix with WElement entries."""

    __slots__ = ()
    _ENTRY = WElement

    @classmethod
    def identity(cls, N: int, n: int, K: int) -> "MatrixWElement":
        one = WElement(n, K, {(0, zeros(n), zeros(n)): 1})
        zero = WElement(n, K)
        return cls([[one if i == j else zero for j in range(N)] for i in range(N)])

    def map_entries(self, f) -> "MatrixWElement":
        return type(self)([[f(x) for x in row] for row in self.entries])

    def __add__(self, other: "MatrixWElement") -> "MatrixWElement":
        self._check(other)
        return type(self)([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)


def _element_dq(term: tuple, k: int):
    a, idx, exp = term
    m = exp[k]
    return (((a, idx, shift(exp, k, -1)), m),) if m else ()


def _element_join(t1: tuple, t2: tuple, r: int) -> tuple:
    return (t1[0] + t2[0] + r, add(t1[1], t2[1]), add(t1[2], t2[2]))


def _pair_product(a, b, pairing):
    if isinstance(a, MatrixWElement):
        if not isinstance(b, MatrixWElement):
            raise DimensionMismatch("cannot mix matrix and scalar operands")
        return a._product(b, lambda x, y: _pair_product(x, y, pairing))
    a._check(b)
    flat = propagate(a.terms.items(), b.terms.items(), pairing,
                     _element_dq, _element_join, a.K)
    return WElement._trusted((a.n, a.K), flat)


def weyl_product(a, b):
    """The q/p-pairing product of two elements or two element matrices.
    Graded inputs of degree j and k multiply to degree j + k, so the
    truncation at order K is exact."""
    return _pair_product(a, b, WEYL_PAIRING)


def wick_product(a, b):
    """The z/zbar-pairing product, z^k = q^k + i p_k."""
    return _pair_product(a, b, WICK_PAIRING)


def canonical_bracket(a: WElement, b: WElement) -> WElement:
    """sum_k (dq^k a * dp_k b - dp_k a * dq^k b)."""
    a._check(b)
    out = WElement(a.n, a.K)
    for k in range(a.n):
        out = out + a.diff_q(k) * b.diff_p(k) - a.diff_p(k) * b.diff_q(k)
    return out


def pi_star(f: LambdaPoly) -> WElement:
    """A base lam-series as a p-independent element."""
    z = zeros(f.n)
    return WElement(f.n, f.K, {(r, z, e): c for (r, e), c in f.terms.items()})


def iota_star(a: WElement) -> LambdaPoly:
    """Set all momenta to zero, keeping the lam-series of q-polynomials."""
    return LambdaPoly._trusted((a.n, a.K), {(r, exp): c for (r, idx, exp), c in a.terms.items()
                                             if not any(idx)})


def laplace_image(flat: dict, n: int) -> dict:
    """One application of Lap, read from `weyl.LAPLACIAN` at call time, to
    flat terms (lam-power, p-exponent, q-exponent)."""
    out: dict = {}
    for term, c in flat.items():
        for k in range(n):
            for u, w in weyl.LAPLACIAN:
                slot = 2 if u == "q" else 1
                m = term[slot][k]
                if m >= 2:
                    e = shift(term[slot], k, -2)
                    accumulate(out, term[:slot] + (e,) + term[slot + 1:], c * (m * (m - 1) * w))
    return out


def exp_laplace(x: WElement, sign: int, K: int) -> WElement:
    """Apply exp(sign * lam * Lap) as the iterated series
    sum_m (sign lam)^m/m! Lap^m, truncated at order K."""
    n = x.n
    state = x.terms
    out: dict = {}
    m = 0
    factor = ONE  # sign^m / m!
    while state:
        for (a, idx, exp), c in state.items():
            if a + m + sum(idx) <= K:
                accumulate(out, (a + m, idx, exp), c * factor)
        state = laplace_image(state, n)
        m += 1
        factor = factor * Fraction(sign, m)
    return WElement._trusted((n, K), out)


def exp_laplace_lifted(x: WElement, sign: int) -> WElement:
    """exp(sign lam Lap) x at a lifted truncation where nothing is
    dropped: Lap^m vanishes on a term once 2m exceeds its p- and
    q-degree."""
    bound = 0
    for a, idx, exp in x.terms:
        bound = max(bound, a + sum(idx) + (sum(idx) + sum(exp) + 1) // 2 + 1)
    K = max(x.K, bound)
    return exp_laplace(x.retruncate(K), sign, K)


def zero_momentum_reference(x: WElement, sign: int, K: int) -> LambdaPoly:
    """iota*(exp(sign lam Lap) x) through lam^K, by the iterated series at
    the lifted order and the chart map: the reference for
    `weyl.exp_laplace_exact`."""
    full = iota_star(exp_laplace_lifted(x, sign))
    return LambdaPoly(x.n, K, full.terms)


def fock_equivalence(a, direction: str = "forward"):
    """exp(sigma lam Lap) on an element or element matrix, mapping the
    z/zbar product side into the q/p side ("forward") or back
    ("inverse"), truncated at the operand's order.  Returns (result,
    sigma)."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    sigma = resolve_fock_sign()["sigma"]
    s = sigma if direction == "forward" else -sigma
    if isinstance(a, MatrixWElement):
        return a.map_entries(lambda x: exp_laplace(x, s, x.K)), sigma
    return exp_laplace(a, s, a.K), sigma


def degree_image(x: WElement) -> WElement:
    """The grading operator sum_i p_i d/dp_i + lam d/dlam applied to x."""
    return WElement(x.n, x.K, {(a, idx, exp): c * (a + sum(idx))
                               for (a, idx, exp), c in x.terms.items()})


# ---------------------------------------------------------------------------
# a functional's action entry by entry
# ---------------------------------------------------------------------------

def evaluate(f: LambdaPoly, point) -> tuple:
    """Substitute exact coordinates into a lam-series; the tuple of
    lam-coefficients (length K + 1).  Each coordinate's powers are taken
    once, up to its top exponent, and shared by every term."""
    if len(point) != f.n:
        raise DimensionMismatch("evaluation point has wrong dimension")
    tops = [max(column) for column in zip(*(exp for _r, exp in f.terms))]
    powers = []
    for x, top in zip(point, tops):
        x = _coerce(x)
        row = [ONE]
        for _ in range(top):
            row.append(row[-1] * x)
        powers.append(row)
    coeffs = [ZERO] * (f.K + 1)
    for (r, exp), c in f.terms.items():
        for row, e in zip(powers, exp):
            if e:
                c = c * row[e]
        coeffs[r] = coeffs[r] + c
    return tuple(coeffs)


def eval_matrix_series(state, entries, K: int) -> tuple:
    """sum_a v_a* M(x_a) v_a for a matrix of LambdaPoly entries, as the
    tuple of its lam-coefficients through lam^K."""
    out = [ZERO] * (K + 1)
    for point, vector in state.atoms:
        for i in range(state.N):
            vi = vector[i].conjugate()
            if not vi:
                continue
            for j in range(state.N):
                vj = vector[j]
                if not vj:
                    continue
                series = evaluate(entries[i][j], point)
                w = vi * vj
                for r in range(min(K, entries[i][j].K) + 1):
                    c = series[r]
                    if c:
                        out[r] = out[r] + c * w
    return tuple(out)


def per_entry_action(omega, m) -> tuple:
    """omega(m) for an `UndeformedExtension` or a `DeformedFunctional`,
    entry by entry: the deformed functional pushes each whole entry
    through tau and E^-1 at zero momentum to its sound order, then both
    evaluate every entry at each atom."""
    if m.N != omega.base.N or m.n != omega.base.n:
        raise DimensionMismatch("test element has wrong shape")
    L = omega.sound_order
    entries = m.entries
    if isinstance(omega, DeformedFunctional):
        entries = [[weyl.exp_laplace_exact(omega.tau.apply(x), -omega.sigma, L) for x in row]
                   for row in entries]
    return eval_matrix_series(omega.base, entries, L)


# ---------------------------------------------------------------------------
# the Wick positivity certificate
# ---------------------------------------------------------------------------

# coefficients: the Fraction per lam-power; entries: the decomposition
# entries per lam-power
WickCertificate = namedtuple("WickCertificate",
                             "coefficients entries all_nonnegative")


def wick_positivity_certificate(state, A: MatrixWElement) -> WickCertificate:
    """Certify Omega_0(A~ . A) >= 0 coefficientwise for the z/zbar
    product, for lam-free A, by exhibiting each lam^r coefficient as
    (2^r / M!) sums of squared moduli of zbar-derivative evaluations."""
    if A.N != state.N or A.n != state.n:
        raise DimensionMismatch("matrix element has wrong shape")
    if any(key[0] for row in A.entries for x in row for key in x.terms):
        raise ValueError("certificate requires a lam-free matrix element")
    K = A.K
    n = A.n

    def dzbar(m: MatrixWElement, k: int) -> MatrixWElement:
        half = Fraction(1, 2)
        return m.map_entries(
            lambda x: x.diff_q(k).scale(half) + x.diff_p(k).scale(GaussianRational(0, half))
        )

    # value = Omega_0( (A~ . A) at p=0 ), computed independently
    prod = wick_product(A.involution(), A)
    pushed = [[iota_star(x) for x in row] for row in prod.entries]
    value = eval_matrix_series(state, pushed, K)
    for r, c in enumerate(value):
        if c.im:
            raise NonRealSeries(f"lam^{r} coefficient is not real: {c}")

    # decomposition: level r collects all zbar-derivative multi-indices
    coefficients = [Fraction(0)] * (K + 1)
    entries = []
    level = {zeros(n): A}
    for r in range(K + 1):
        for M, dA in sorted(level.items()):
            factor = Fraction(2 ** r, factorial(M))
            at_zero = [[iota_star(x) for x in row] for row in dA.entries]
            for ai, (point, vector) in enumerate(state.atoms):
                norm_sq = Fraction(0)
                for i in range(state.N):
                    w = ZERO
                    for j in range(state.N):
                        series = evaluate(at_zero[i][j], point)
                        w = w + series[0] * vector[j]
                    norm_sq += w.re * w.re + w.im * w.im
                if norm_sq:
                    coefficients[r] += factor * norm_sq
                    entries.append({
                        "lambda_power": r,
                        "atom": ai,
                        "multi_index": list(M),
                        "factor": str(factor),
                        "norm_sq": str(norm_sq),
                    })
        # next derivative level
        nxt: dict = {}
        for M, dA in level.items():
            for k in range(n):
                key = shift(M, k, 1)
                if key not in nxt:
                    nxt[key] = dzbar(dA, k)
        level = {k: v for k, v in nxt.items() if not v.is_zero()}
        if not level:
            break

    for r in range(K + 1):
        if coefficients[r] != value[r].re:
            raise NonRealSeries(
                f"certificate reconstruction mismatch at lam^{r}: "
                f"{coefficients[r]} vs {value[r].re}"
            )
    return WickCertificate(
        coefficients=coefficients,
        entries=entries,
        all_nonnegative=all(c >= 0 for c in coefficients),
    )


# ---------------------------------------------------------------------------
# the build kernels in their plain form
# ---------------------------------------------------------------------------
#
# `weyl.propagate`, `cochain.compose_slot` and `cochain.coboundary` keep
# per-call tables of the quantities each term needs; these are the same
# sums with every quantity recomputed where it is used.

def propagate_reference(left, right, pairing, dq, join, K: int) -> dict:
    """`weyl.propagate`, deriving each term again for every pair and order."""
    steps = [("qp".index(u), "qp".index(v), w) for u, v, w in pairing]
    monotone = all(u != "p" or v != "p" for u, v, _w in pairing)
    right = list(right)
    state: dict = {}
    for t1, c1 in left:
        for t2, c2 in right:
            if monotone and t1[0] + sum(t1[1]) + t2[0] + sum(t2[1]) > K:
                continue
            accumulate(state, (t1, t2), c1 * c2)
    out: dict = {}
    r = 0
    while state:
        new: dict = {}
        for (t1, t2), c in state.items():
            key = join(t1, t2, r)
            if key[0] + sum(key[1]) <= K:
                accumulate(out, key, c)
            if t1[0] + t2[0] + r + 1 > K:
                continue
            for k in range(len(t1[1])):
                lefts = (dq(t1, k), weyl._dp(t1, k))
                rights = (dq(t2, k), weyl._dp(t2, k))
                for li, ri, w in steps:
                    for lt, lm in lefts[li]:
                        for rt, rm in rights[ri]:
                            accumulate(new, (lt, rt), c * w * Fraction(lm * rm, r + 1))
        state = new
        r += 1
    return out


def cochain_weyl_product_reference(phi: MultiDiffCochain,
                                   psi: MultiDiffCochain) -> MultiDiffCochain:
    flat = propagate_reference(phi.terms.items(), psi.terms.items(), WEYL_PAIRING,
                               cochain._cochain_dq, cochain._cochain_join, phi.K)
    return MultiDiffCochain._trusted((phi.n, phi.K, phi.arity + psi.arity), flat)


def compose_slot_reference(phi: MultiDiffCochain, slot: int,
                           inner: MultiDiffCochain) -> MultiDiffCochain:
    """`cochain.compose_slot`, weighing every Leibniz split where it is used."""
    out: dict = {}
    for (a, idx, jvec, exp), c in phi.terms.items():
        j = jvec[slot]
        for (_a, _i, avec, fexp), ic in inner.terms.items():
            for j0 in below(tuple(map(min, j, fexp))):
                weight = binom(j, j0) * falling(fexp, j0)
                for pieces, mult in cochain._splittings(sub(j, j0), inner.arity):
                    new_slots = tuple(map(add, avec, pieces))
                    accumulate(out, (a, idx, jvec[:slot] + new_slots + jvec[slot + 1:],
                                     add(exp, sub(fexp, j0))),
                               c * ic * (weight * mult))
    return MultiDiffCochain._trusted((phi.n, phi.K, phi.arity + inner.arity - 1), out)


def _outer_action_terms(a, idx, exp, c, deformed, left):
    """The bimodule action of a new argument on one value term, as
    (a', idx', jnew, exp, coeff) with jnew the new argument's derivative."""
    if not deformed:
        yield (a, idx, zeros(len(idx)), exp, c)
        return
    for jnew in below(idx):
        w = sum(jnew)
        scalar = (I * Fraction(1, 2) if left else I * Fraction(-1, 2)) ** w
        yield (a + w, sub(idx, jnew), jnew, exp, c * scalar * binom(idx, jnew))


def coboundary_reference(phi: MultiDiffCochain, deformed: bool = True) -> MultiDiffCochain:
    """`cochain.coboundary`, expanding each term's action and insertions
    from scratch."""
    k = phi.arity
    out: dict = {}
    for (a, idx, jvec, exp), c in phi.terms.items():
        for (a2, idx2, jnew, exp2, c2) in _outer_action_terms(a, idx, exp, c, deformed, True):
            accumulate(out, (a2, idx2, (jnew,) + jvec, exp2), c2)
        sign = -1
        for i in range(k):
            j = jvec[i]
            for l in below(j):
                newj = jvec[:i] + (l, sub(j, l)) + jvec[i + 1:]
                accumulate(out, (a, idx, newj, exp), c * (sign * binom(j, l)))
            sign = -sign
        tail_sign = 1 if (k + 1) % 2 == 0 else -1
        for (a2, idx2, jnew, exp2, c2) in _outer_action_terms(a, idx, exp, c, deformed, False):
            accumulate(out, (a2, idx2, jvec + (jnew,), exp2), c2 * tail_sign)
    return MultiDiffCochain._trusted((phi.n, phi.K, k + 1), out)
