import importlib.util
import json
import random
import sys
from fractions import Fraction

import pytest

from dqw import taubuild
from dqw.cobsolver import CocyclePrecondition
from dqw.cochain import (MultiDiffCochain, coboundary, identity_cochain,
                         plug_constant)
from dqw.qpoly import QPolynomial
from dqw.rationals import gr
from dqw.scenario import random_lambda_poly
from dqw.starspec import StarProductSpec, make_constant_theta_star, star_apply
from dqw.taubuild import (BuildAborted, ClosedFormTau, TauMap, build_tau,
                          check_poisson_realization, compute_Rk,
                          epsilon_cochain)
from dqw.terms import exponents
from dqw.welement import LambdaPoly, WElement
from dqw.weyl import ConsistencyError, canonical_bracket, weyl_product

from conftest import SCENARIO_DIR

N = 2
ZERO_IDX = (0, 0)
ONE = QPolynomial.constant(N, 1)


def lp(poly, K=4):
    return LambdaPoly.from_poly(poly, K)


class TestComputeRk:
    def test_stage_one_constant_theta(self, moyal_r2):
        taus = [identity_cochain(N, 4)]
        r1 = compute_Rk(moyal_r2, taus, 1)
        ih = gr(0, Fraction(1, 2))
        expect = MultiDiffCochain(N, 4, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE.scale(ih),
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-ih),
        })
        assert r1 == expect
        assert r1.classical_limit().is_zero()

    def test_zero_poisson_all_stages_vanish(self, zero_star):
        taus = [identity_cochain(N, 3),
                MultiDiffCochain.zero(N, 3, 1),
                MultiDiffCochain.zero(N, 3, 1)]
        for k in (1, 2):
            assert compute_Rk(zero_star, taus, k).is_zero()

    def test_stage_term_is_cocycle(self, moyal_r2, tau_moyal_r2):
        r2 = compute_Rk(moyal_r2, list(tau_moyal_r2.components[:2]), 2)
        assert coboundary(r2, True).is_zero()
        assert r2.is_homogeneous(2)

    def test_non_cocycle_stage_term_aborts_with_witness(self):
        # the perturbed product is not associative at order 3, so the
        # build, which does not validate, meets a stage-3 term that is not
        # a cocycle
        data = json.loads((SCENARIO_DIR / "perturbed-c2.json").read_text())
        spec = StarProductSpec.from_json(data["star_product"]["inline"])
        with pytest.raises(BuildAborted,
                           match="^stage-3 term: target is not a cocycle; "
                                 "witness arguments") as exc:
            build_tau(spec, 4)
        assert isinstance(exc.value.__cause__, CocyclePrecondition)


class TestBuild:
    def test_stated_stage_one_candidate_is_valid(self, moyal_r2):
        taus = [identity_cochain(N, 4)]
        r1 = compute_Rk(moyal_r2, taus, 1)
        cand = MultiDiffCochain(N, 4, 1, {
            (0, (1, 0), ((0, 1),)): ONE.scale(Fraction(1, 2)),
            (0, (0, 1), ((1, 0),)): ONE.scale(Fraction(-1, 2)),
        })
        assert coboundary(cand, True) == r1
        assert cand.involution() == cand
        eps = epsilon_cochain(moyal_r2, taus + [cand], 1)
        assert eps.component(0).is_zero() and eps.component(1).is_zero()

    def test_constant_theta_build(self, moyal_r2, tau_moyal_r2):
        tau = tau_moyal_r2
        assert tau.hermitian
        for k, comp in enumerate(tau.components):
            if not comp.is_zero():
                assert comp.is_homogeneous(k)
            assert comp.involution() == comp
            if k >= 1:
                assert plug_constant(comp, 0).is_zero()
        eps = epsilon_cochain(moyal_r2, list(tau.components), 4)
        for d in range(5):
            assert eps.component(d).is_zero()

    def test_zero_poisson_build_is_plain_embedding(self, zero_star):
        tau, report = build_tau(zero_star, 3)
        assert tau.components[0] == identity_cochain(N, 3)
        assert all(c.is_zero() for c in tau.components[1:])

    def test_linear_poisson_build(self, linear_2d, tau_linear):
        eps = epsilon_cochain(linear_2d, list(tau_linear.components), 3)
        for d in range(4):
            assert eps.component(d).is_zero()
        for k, comp in enumerate(tau_linear.components):
            assert comp.involution() == comp
            if not comp.is_zero():
                assert comp.is_homogeneous(k)

    def test_determinism(self, moyal_r2, tau_moyal_r2):
        again, report = build_tau(moyal_r2, 4)
        assert again == tau_moyal_r2

    def test_epsilon_composes_only_surviving_terms(self, moyal_r2, tau_moyal_r2,
                                                   monkeypatch):
        """The lam^r shift after composing with C_r drops no term, so only
        the terms of tau that reach the checked degrees are composed."""
        dropped = []
        shift = MultiDiffCochain.scale_lambda

        def counted(phi, r):
            out = shift(phi, r)
            dropped.append(len(phi.terms) - len(out.terms))
            return out

        monkeypatch.setattr(MultiDiffCochain, "scale_lambda", counted)
        eps = epsilon_cochain(moyal_r2, list(tau_moyal_r2.components), 4)
        assert eps.is_zero()
        assert dropped and sum(dropped) == 0

    def test_order_zero_build(self, zero_star):
        tau, _ = build_tau(zero_star, 0)
        assert tau.components == (identity_cochain(N, 0),)

    def test_rejects_order_beyond_spec(self, moyal_r2):
        from dqw.starspec import InvalidStarProduct
        with pytest.raises(InvalidStarProduct):
            build_tau(moyal_r2, 7)

    def test_injectivity_witness(self, tau_moyal_r2):
        # the momentum-free classical part is exactly the plain embedding
        for k, comp in enumerate(tau_moyal_r2.components):
            for (a, idx, _j) in comp.terms:
                if k >= 1:
                    assert (a, idx) != (0, ZERO_IDX)


def _bench_n4_spec(seed=5, K=4):
    """The seeded n = 4 constant bracket of the build-tau benchmark."""
    path = SCENARIO_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    theta = workloads.moyal_n4_scenario(seed)["star_product"]["theta"]
    return make_constant_theta_star([[Fraction(x) for x in row] for row in theta], K)


class TestStageIdentity:
    """The algebra behind the one-degree stage check: adding the
    homogeneous tau_k leaves the error below degree k unchanged, and its
    degree-k component is R_k - d(tau_k), whatever tau_k is."""

    def _check_stages(self, spec, taus):
        K = len(taus) - 1
        for k in range(1, K + 1):
            rk = compute_Rk(spec, taus[:k], k)
            # the built component, no component, and the retired -1 sign
            for cand in (taus[k], MultiDiffCochain.zero(spec.n, K, 1), -taus[k]):
                eps = epsilon_cochain(spec, taus[:k] + [cand], k)
                for d in range(k):
                    assert eps.component(d).is_zero(), (k, d)
                expect = rk - coboundary(cand, deformed=True)
                assert eps.component(k) == expect.retruncate(k), k
            assert coboundary(taus[k], deformed=True) == rk

    def test_moyal_r2(self, moyal_r2, tau_moyal_r2):
        self._check_stages(moyal_r2, list(tau_moyal_r2.components))

    def test_linear_2d(self, linear_2d, tau_linear):
        self._check_stages(linear_2d, list(tau_linear.components))

    def test_moyal_r3_rank2(self, moyal_r3_rank2, tau_moyal_r3):
        self._check_stages(moyal_r3_rank2, list(tau_moyal_r3.components))

    def test_bench_n4_bracket(self):
        spec = _bench_n4_spec()
        tau, report = build_tau(spec, 4)
        assert report.sign == 1
        self._check_stages(spec, list(tau.components))


class TestStageCheckFailure:
    """A stage component that does not solve d(tau_k) = R_k is caught by
    the degree-k check of its own stage."""

    def _patch(self, monkeypatch, change):
        real = taubuild.solve_coboundary

        def fake(phi):
            psi, rep = real(phi)
            (k,) = phi.degrees()
            return change(psi, k), rep

        monkeypatch.setattr(taubuild, "solve_coboundary", fake)

    def test_negated_solution(self, moyal_r2, monkeypatch):
        self._patch(monkeypatch, lambda psi, k: -psi)
        with pytest.raises(ConsistencyError,
                           match="error check failed in degree 1 at stage 1$"):
            build_tau(moyal_r2, 4)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_perturbed_solution(self, moyal_r2, monkeypatch, stage):
        # lam^k D_1 D_1 is real, kills constants and is not a cocycle
        bump = MultiDiffCochain(N, 4, 1, {(stage, ZERO_IDX, ((2, 0),)): ONE})
        assert not coboundary(bump, deformed=True).is_zero()
        self._patch(monkeypatch,
                    lambda psi, k: psi + bump if k == stage else psi)
        with pytest.raises(ConsistencyError,
                           match=f"error check failed in degree {stage} "
                                 f"at stage {stage}$"):
            build_tau(moyal_r2, 4)


class TestApply:
    def test_plain_embedding_case(self, zero_star):
        tau, _ = build_tau(zero_star, 3)
        f = lp(QPolynomial.monomial(N, (1, 1)), K=3)
        out = tau.apply(f)
        assert out == WElement.from_poly(QPolynomial.monomial(N, (1, 1)), 3)

    def test_homomorphism_identity_on_samples(self, moyal_r2, tau_moyal_r2):
        rng = random.Random(5)
        for _ in range(10):
            fp = QPolynomial.monomial(
                N, (rng.randint(0, 2), rng.randint(0, 2)), gr(rng.randint(-3, 3)))
            gp = QPolynomial.monomial(
                N, (rng.randint(0, 2), rng.randint(0, 2)), gr(1, rng.randint(-2, 2)))
            f, g = lp(fp), lp(gp)
            lhs = tau_moyal_r2.apply(star_apply(moyal_r2, f, g))
            rhs = weyl_product(tau_moyal_r2.apply(f), tau_moyal_r2.apply(g))
            assert lhs == rhs

    def test_conjugation_commutes_for_hermitian_build(self, tau_moyal_r2):
        f = lp(QPolynomial.monomial(N, (2, 1), gr(1, 3)))
        assert tau_moyal_r2.apply(f.conjugate()) == \
            tau_moyal_r2.apply(f).conjugate()


def _substitution_reference(theta, f: LambdaPoly, K: int | None = None) -> WElement:
    """f(q^i - (1/2) sum_j theta^{ij} p_j) by products of the coordinate
    images, computed with nothing dropped and then truncated at K (not at
    all when K is None)."""
    n = len(theta)
    KK = max([K or 0] + [r + sum(e) for r, poly in f.terms.items() for e in poly.terms])
    images = []
    for i in range(n):
        img = WElement.coordinate_q(n, KK, i)
        for j in range(n):
            if theta[i][j]:
                img = img - WElement.coordinate_p(n, KK, j).scale(
                    Fraction(theta[i][j]) / 2)
        images.append(img)
    out = WElement.zero(n, KK)
    for r, poly in f.terms.items():
        for exp, c in poly.terms.items():
            term = WElement.monomial(n, KK, r, (0,) * n, (0,) * n, c)
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
    return out if K is None else WElement(n, K, out.terms)


def seeded_theta(rng, n):
    theta = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            theta[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            theta[j][i] = -theta[i][j]
    return theta


class TestClosedForm:
    def test_coordinate_images(self, fixture_tau_r2):
        f = lp(QPolynomial.coordinate(N, 0))
        out = fixture_tau_r2.apply(f)
        K = fixture_tau_r2.K
        expect = WElement.coordinate_q(N, K, 0) - \
            WElement.coordinate_p(N, K, 1).scale(Fraction(1, 2))
        assert out == expect

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_components_match_the_substitution(self, n):
        rng = random.Random(40 + n)
        for K in range(0, 6):
            theta = seeded_theta(rng, n)
            tau = ClosedFormTau(theta, K)
            assert tau.hermitian and len(tau.components) == K + 1
            for _ in range(4):
                f = random_lambda_poly(rng, n, K, 3, 4, True)
                assert tau.apply(f) == _substitution_reference(theta, f, K)

    def test_apply_takes_no_derivative_above_the_argument(self, monkeypatch):
        """D^j of an argument is asked for only when j <= its componentwise
        top exponent; every other term of the map vanishes on it."""
        theta = [[0, 1], [-1, 0]]
        tau = ClosedFormTau(theta, 8)
        f = lp(QPolynomial.monomial(N, (1, 1)) + QPolynomial.monomial(N, (2, 0)), 8)
        derivative = QPolynomial.derivative

        def checked(poly, j):
            top = tuple(map(max, zip(*poly.terms)))
            assert all(x <= t for x, t in zip(j, top)), f"D^{j} of {poly}"
            return derivative(poly, j)

        monkeypatch.setattr(QPolynomial, "derivative", checked)
        assert tau.apply(f) == _substitution_reference(theta, f, 8)

    def test_rejects_non_antisymmetric_theta(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            ClosedFormTau([[0, 1], [1, 0]], 2)

    def test_homomorphism(self, moyal_r2, fixture_tau_r2):
        f = lp(QPolynomial.monomial(N, (1, 1)))
        g = lp(QPolynomial.monomial(N, (0, 2), gr(0, 1)))
        lhs = fixture_tau_r2.apply(star_apply(moyal_r2, f, g))
        rhs = weyl_product(fixture_tau_r2.apply(f), fixture_tau_r2.apply(g))
        assert lhs == rhs


class TestPoissonRealization:
    def test_fixture_brackets(self, moyal_r2, fixture_tau_r2):
        report = check_poisson_realization(fixture_tau_r2, moyal_r2, K=4)
        assert report.ok

    def test_built_tau(self, moyal_r2, tau_moyal_r2):
        assert check_poisson_realization(tau_moyal_r2, moyal_r2).ok

    def test_zero_poisson(self, zero_star):
        tau, _ = build_tau(zero_star, 3)
        assert check_poisson_realization(tau, zero_star).ok

    def test_corrupted_component_reported(self, moyal_r2, tau_moyal_r2):
        comps = list(tau_moyal_r2.components)
        comps[1] = comps[1] + MultiDiffCochain(N, 4, 1, {
            (0, (1, 0), ((1, 0),)): ONE})
        broken = TauMap(N, 4, comps, hermitian=False)
        report = check_poisson_realization(broken, moyal_r2)
        assert not report.ok
        assert report.violation == _first_ordered_violation(broken, moyal_r2)

    def test_unordered_pairs_counted(self, moyal_r2, tau_moyal_r2, moyal_r3_rank2,
                                     tau_moyal_r3):
        # 5 basis monomials of degree 1..2 at n = 2, 9 at n = 3
        assert check_poisson_realization(tau_moyal_r2, moyal_r2).checked_pairs == 10
        assert check_poisson_realization(
            tau_moyal_r3, moyal_r3_rank2).checked_pairs == 36


def _first_ordered_violation(tau, spec, max_q_degree=2):
    """The realization check over every ordered pair, diagonal included:
    the violation text of the first failing pair, or None."""
    cl = tau.classical_part()
    basis = [QPolynomial.monomial(tau.n, e)
             for t in range(1, max_q_degree + 1) for e in exponents(tau.n, t)]
    for f in basis:
        for g in basis:
            diff = cl.evaluate([spec.poisson_bracket(f, g)]) - \
                canonical_bracket(cl.evaluate([f]), cl.evaluate([g]))
            bad = {key: p for key, p in diff.terms.items()
                   if key[0] == 0 and sum(key[1]) <= tau.K - 1}
            if bad:
                key = sorted(bad)[0]
                return (f"pair ({f}, {g}): p-exponent {key[1]} "
                        f"differs by {bad[key]}")
    return None


class TestSerialization:
    def test_report_roundtrip(self, moyal_r2):
        tau, report = build_tau(moyal_r2, 4)
        assert report.sign == 1
        assert [s.stage for s in report.stages] == [1, 2, 3, 4]
