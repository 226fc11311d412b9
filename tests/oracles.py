"""Reference implementations that only the tests use.

* The Weyl/Wick intertwining check on an explicit pair of elements,
  independent of the symbol certificate in `dqw.weyl`.
* The weighted Euler-contraction homotopy h of the momentum Koszul
  complex, with d_p h + h d_p = id on forms of degree >= 1; the solver
  uses the axial potential instead.
* The bracket-realization check pair by pair, evaluating both sides of
  every pair from scratch through the spec's Poisson bracket;
  `taubuild.check_poisson_realization` shares the basis images, their
  gradients and the monomial images instead.
* The lam-shift of a base lam-series.
* The lam-linear extensions written out one lam-power at a time:
  a cochain's value, the star product and the embedding's application
  as sums over the lam-coefficients of their arguments, each evaluated
  lam-free and shifted by its lam-power; `MultiDiffCochain.evaluate`
  takes lam-series arguments in one pass instead.
* The associativity check with both sides of every associator composed;
  `starspec.validate_star` takes the second side as the involution of
  the first when the product is Hermitian.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from dqw.cochain import MultiDiffCochain, compose_slot, find_witness, mu_cochain
from dqw.koszul import KoszulForm
from dqw.qpoly import group_terms
from dqw.starspec import ValidationCheck
from dqw.taubuild import RealizationReport
from dqw.terms import accumulate, exponents, shift, unit
from dqw.welement import LambdaPoly, WElement
from dqw.weyl import _exp_laplace, canonical_bracket, weyl_product, wick_product


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
    lhs = _exp_laplace(wick_product(a, b), sign, K)
    rhs = weyl_product(_exp_laplace(a, sign, K), _exp_laplace(b, sign, K))
    return lhs == rhs


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
    """{f, g} = sum_{k,l} theta^{kl} D_k f D_l g for the spec's bracket."""
    theta = spec.poisson_matrix()
    out = LambdaPoly.zero(spec.n, f.K)
    for k in range(spec.n):
        fk = f.derivative(unit(spec.n, k))
        if fk.is_zero():
            continue
        for l in range(spec.n):
            if theta[k][l].is_zero():
                continue
            out = out + LambdaPoly.from_poly(theta[k][l], f.K) * fk * \
                g.derivative(unit(spec.n, l))
    return out


def shift_lam(f: LambdaPoly, r: int) -> LambdaPoly:
    """lam^r f, truncated at f's order."""
    return LambdaPoly(f.n, f.K, {(s + r, e): c for (s, e), c in f.terms.items()})


def lam_coefficients(f: LambdaPoly) -> dict:
    """r -> the lam^r coefficient of f, as a lam-free series."""
    out: dict = {}
    for (r, e), c in f.terms.items():
        out.setdefault(r, {})[(0, e)] = c
    return {r: LambdaPoly(f.n, f.K, t) for r, t in sorted(out.items())}


def evaluate_per_order(phi: MultiDiffCochain, args) -> WElement:
    """phi(f_1..f_k) summed over one lam-coefficient per argument: phi on
    those lam-free coefficients, shifted by the sum of their lam-powers."""
    out = WElement.zero(phi.n, phi.K)
    for combo in itertools.product(*(lam_coefficients(f).items() for f in args)):
        r = sum(s for s, _ in combo)
        if r <= phi.K:
            out = out + phi.evaluate([x for _, x in combo]).scale_lambda(r)
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
    out = WElement.zero(tau.n, tau.K)
    for r, fr in lam_coefficients(f).items():
        if r <= tau.K:
            out = out + total.evaluate([fr]).scale_lambda(r)
    return out


def realization_per_pair(tau, spec, K=None) -> RealizationReport:
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
            return RealizationReport(
                ok=False, checked_pairs=checked,
                violation=f"pair ({f}, {g}): p-exponent {idx} differs by {poly}")
    return RealizationReport(ok=True, checked_pairs=checked)


def two_sided_associator(spec, m: int) -> MultiDiffCochain:
    """sum_{i+j=m} C_i(C_j(f,g),h) - C_i(f,C_j(g,h)) with C_0 the
    pointwise product, composing both sides of every pair."""
    def cr(r):
        return mu_cochain(spec.n, spec.order) if r == 0 else spec.cochain(r)

    out = MultiDiffCochain.zero(spec.n, spec.order, 3)
    for i in range(m + 1):
        out = out + compose_slot(cr(i), 0, cr(m - i)) - compose_slot(cr(i), 1, cr(m - i))
    return out


def associativity_two_sided(spec, K=None) -> ValidationCheck:
    """The associativity entry of `validate_star` from the two-sided
    associator: the first failing order and its witness."""
    K = spec.order if K is None else min(K, spec.order)
    for m in range(1, K + 1):
        got = find_witness(two_sided_associator(spec, m))
        if got is not None:
            args, val = got
            return ValidationCheck("associativity", False, order=m,
                                   witness=f"args ({', '.join(map(str, args))}) -> {val}")
    return ValidationCheck("associativity", True)
