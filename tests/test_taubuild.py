import json
import random
from fractions import Fraction

import pytest

from dqw.cochain import (MultiDiffCochain, coboundary, identity_cochain,
                         plug_constant)
from dqw.qpoly import QPolynomial
from dqw.rationals import gr
from dqw.starspec import star_apply
from dqw.taubuild import (BuildReport, TauMap, build_tau,
                          check_poisson_realization, compute_Rk,
                          epsilon_cochain)
from dqw.welement import LambdaPoly, WElement
from dqw.weyl import weyl_product

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
        blob1 = json.dumps(again.to_json(), sort_keys=True)
        blob2 = json.dumps(tau_moyal_r2.to_json(), sort_keys=True)
        assert blob1 == blob2

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


class TestClosedForm:
    def test_coordinate_images(self, fixture_tau_r2):
        f = lp(QPolynomial.coordinate(N, 0))
        out = fixture_tau_r2.apply(f)
        expect = WElement.coordinate_q(N, 4, 0) - \
            WElement.coordinate_p(N, 4, 1).scale(Fraction(1, 2))
        assert out == expect

    def test_homomorphism(self, moyal_r2, fixture_tau_r2):
        f = lp(QPolynomial.monomial(N, (1, 1)))
        g = lp(QPolynomial.monomial(N, (0, 2), gr(0, 1)))
        lhs = fixture_tau_r2.apply(star_apply(moyal_r2, f, g))
        rhs = weyl_product(fixture_tau_r2.apply(f), fixture_tau_r2.apply(g))
        assert lhs == rhs

    def test_tail_exact_flag(self, fixture_tau_r2, tau_moyal_r2):
        assert fixture_tau_r2.tail_exact
        assert not tau_moyal_r2.tail_exact


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
        assert report.violation


class TestSerialization:
    def test_tau_roundtrip(self, tau_moyal_r2):
        blob = json.dumps(tau_moyal_r2.to_json(), sort_keys=True)
        again = TauMap.from_json(json.loads(blob))
        assert again == tau_moyal_r2
        assert json.dumps(again.to_json(), sort_keys=True) == blob

    def test_report_roundtrip(self, moyal_r2):
        tau, report = build_tau(moyal_r2, 4)
        blob = json.dumps(report.to_json(), sort_keys=True)
        again = BuildReport.from_json(json.loads(blob))
        assert json.dumps(again.to_json(), sort_keys=True) == blob
        assert report.sign == 1
        assert [s.stage for s in report.stages] == [1, 2, 3, 4]
