import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqw.functionals import (DeformedFunctional, GluedFunctional, MatrixLambdaPoly,
                             PartitionError, StateFunctional, UndeformedExtension,
                             star_squares)
from dqw.rationals import I
from dqw.cli import build_star_product, build_tau_map
from dqw.scenario import (Scenario, generate_tests, load_scenario, random_lambda_poly,
                          read_functional)
from dqw.terms import accumulate, zeros
from dqw.welement import LambdaPoly, NonRealSeries, WElement
from dqw.weyl import resolve_fock_sign

from conftest import SCENARIO_DIR, positivity_verdict
from oracles import (MatrixWElement, eval_matrix_series, evaluate, exp_laplace_lifted,
                     iota_star, per_entry_action, wick_positivity_certificate)
from strategies import (coordinate, element, fractions, gaussian_rationals, gr, lam_power,
                        lambda_polys, momentum, monomial, series)
from test_taubuild import _substitution_reference, seeded_theta

N_DIM, K = 2, 4


def lp(poly, KK=K):
    return series(poly, KK)


def scalar(f):
    """A lam-series as the 1 x 1 matrix every functional acts on."""
    return MatrixLambdaPoly([[f]])


def counterexample_test():
    return lp(coordinate(N_DIM, 0) +
              coordinate(N_DIM, 1).scale(I))


@pytest.fixture(scope="module")
def delta0():
    return StateFunctional(N_DIM, 1, [((0, 0), (1,))])


class TestStateFunctional:
    def test_delta_functional(self, delta0):
        f = scalar(lp(monomial(N_DIM, (2, 0), 3)))
        assert str(UndeformedExtension(delta0, K).action(f)[0]) == "0"

    def test_empty_atom_list_is_zero(self):
        zero = StateFunctional(N_DIM, 1, [])
        f = scalar(lp(monomial(N_DIM, zeros(N_DIM), 5)))
        assert all(not c for c in UndeformedExtension(zero, K).action(f))

    def test_matrix_compression(self):
        st = StateFunctional(N_DIM, 2, [((0, 0), (1, 0))])
        m = MatrixLambdaPoly([
            [lp(monomial(N_DIM, zeros(N_DIM), 7)), lp(monomial(N_DIM, zeros(N_DIM), 2))],
            [lp(monomial(N_DIM, zeros(N_DIM), 3)), lp(monomial(N_DIM, zeros(N_DIM), 5))],
        ])
        out = UndeformedExtension(st, K).action(m)
        assert str(out[0]) == "7"

    def test_positive_on_squares_by_construction(self):
        rng = random.Random(31)
        st = StateFunctional(
            N_DIM, 1, [((1, 2), (gr(1, 1),)), ((Fraction(-1, 2), 0), (gr(2),))])
        for _ in range(10):
            f = random_lambda_poly(rng, N_DIM, K, 3, 3, False)
            base = LambdaPoly(N_DIM, K, {k: c for k, c in f.terms.items() if k[0] == 0})
            val = UndeformedExtension(st, K).action(scalar(base.conjugate() * base))[0]
            assert val.im == 0 and val.re >= 0

    def test_atom_order_canonical(self):
        a = StateFunctional(N_DIM, 1, [((1, 0), (1,)), ((0, 0), (1,))])
        b = StateFunctional(N_DIM, 1, [((0, 0), (1,)), ((1, 0), (1,))])
        assert a == b

    def test_json_roundtrip(self):
        """A scenario's atom literal parses to the functional it names."""
        data = {"atoms": [{"point": ["1/2", "-1"], "vector": ["1", "1/3 i"]}]}
        st = StateFunctional(
            N_DIM, 2, [((Fraction(1, 2), -1), (gr(1), gr(0, Fraction(1, 3))))])
        assert read_functional("functional", data, N_DIM, 2) == st


class TestWickCertificate:
    def _z(self, k=0):
        return element(coordinate(N_DIM, k), K) + \
            momentum(N_DIM, K, k).scale(I)

    def test_antiholomorphic_coordinate(self, delta0):
        cert = wick_positivity_certificate(
            delta0, MatrixWElement([[self._z().conjugate()]]))
        assert [str(c) for c in cert.coefficients] == ["0", "2", "0", "0", "0"]
        assert cert.all_nonnegative
        assert any(e["lambda_power"] == 1 for e in cert.entries)

    def test_holomorphic_coordinate_vanishes(self, delta0):
        cert = wick_positivity_certificate(delta0, MatrixWElement([[self._z()]]))
        assert all(c == 0 for c in cert.coefficients)

    def test_identity_matrix(self, delta0):
        cert = wick_positivity_certificate(
            delta0, MatrixWElement.identity(1, N_DIM, K))
        assert [str(c) for c in cert.coefficients] == ["1", "0", "0", "0", "0"]

    def test_rejects_lambda_content(self, delta0):
        with pytest.raises(ValueError):
            wick_positivity_certificate(
                delta0, MatrixWElement([[lam_power(N_DIM, K)]]))

    def test_seeded_random_matrices_nonnegative(self):
        rng = random.Random(99)
        for trial in range(30):
            NN = rng.choice((1, 2))
            atoms = [
                (tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(N_DIM)),
                 tuple(gr(rng.randint(-2, 2), rng.randint(-2, 2))
                       for _ in range(NN)))
                for _ in range(rng.randint(1, 2))
            ]
            state = StateFunctional(N_DIM, NN, atoms)
            entries = []
            for i in range(NN):
                row = []
                for j in range(NN):
                    terms = {}
                    for _ in range(2):
                        pidx = [0] * N_DIM
                        for _ in range(rng.randint(0, 2)):
                            pidx[rng.randrange(N_DIM)] += 1
                        qexp = tuple(rng.randint(0, 1) for _ in range(N_DIM))
                        accumulate(terms, (0, tuple(pidx), qexp),
                                   gr(rng.randint(-2, 2), rng.randint(-2, 2)))
                    row.append(WElement(N_DIM, K, terms))
                entries.append(row)
            cert = wick_positivity_certificate(state, MatrixWElement(entries))
            assert cert.all_nonnegative


class TestDeformedFunctional:
    def test_unital(self, moyal_r2, fixture_tau_r2, delta0):
        omega = DeformedFunctional(delta0, fixture_tau_r2, K)
        out = omega.action(scalar(LambdaPoly.constant(N_DIM, K, 1)))
        assert str(out[0]) == "1"
        assert all(not c for c in out[1:])

    def test_counterexample_value_closed_form(self, moyal_r2, fixture_tau_r2, delta0):
        from dqw.starspec import star_apply
        omega = DeformedFunctional(delta0, fixture_tau_r2, K)
        f = counterexample_test()
        g = star_apply(moyal_r2, f.conjugate(), f)
        out = omega.action(scalar(g))
        assert [str(c) for c in out] == ["0", "1/4", "0", "0", "0"]

    def test_classical_limit_property(self, fixture_tau_r2, delta0):
        rng = random.Random(12)
        omega = DeformedFunctional(delta0, fixture_tau_r2, K)
        for _ in range(10):
            f = random_lambda_poly(rng, N_DIM, K, 3, 3, True)
            out = omega.action(scalar(f))
            assert out[0] == evaluate(f, (0, 0))[0]

    def test_sound_order(self, tau_moyal_r2, fixture_tau_r2, delta0):
        built = DeformedFunctional(delta0, tau_moyal_r2, tau_moyal_r2.K)
        fixt = DeformedFunctional(delta0, fixture_tau_r2, K)
        assert built.sound_order == K // 2
        assert fixt.sound_order == K


class TestClosedFormSeries:
    """The deformed series of a closed-form scenario must equal, through
    lam^K, the one pushed through the untruncated substitution."""

    @staticmethod
    def _check(scenario):
        spec = build_star_product(scenario)
        tau, _ = build_tau_map(scenario, spec)
        state = scenario.state
        omega = DeformedFunctional(state, tau, scenario.K)
        sigma = resolve_fock_sign()["sigma"]
        tests, labels = generate_tests(scenario)
        for g, label in zip(star_squares(spec, tests), labels):
            pushed = [[iota_star(exp_laplace_lifted(
                _substitution_reference(spec.theta, x), -sigma)) for x in row]
                for row in g.entries]
            expect = eval_matrix_series(state, pushed, scenario.K)
            assert omega.action(g) == expect, label

    def test_fixture_scenario(self):
        self._check(load_scenario(str(SCENARIO_DIR / "moyal-r2-delta-fixture.json")))

    def test_seeded_n3_bracket(self):
        rng = random.Random(8)
        theta = seeded_theta(rng, 3)
        self._check(Scenario.from_json({
            "name": "n3-closed-form", "n": 3, "K": 4,
            "star_product": {"generator": "constant_theta",
                             "theta": [[str(x) for x in row] for row in theta]},
            "tau": {"source": "closed_form"},
            "functional": {"atoms": [{"point": ["1", "-1/2", "2"],
                                      "vector": ["1"]}]},
            "tests": {"random": {"seed": 3, "count": 6, "max_q_degree": 3,
                                 "max_coeff": 4}},
        }))


DEFORMING = ("moyal-r2-delta", "linear-poisson-2d", "moyal-r2-delta-fixture",
             "zero-poisson", "moyal-r3-rank2-delta")


@functools.cache
def _deforming(name):
    """(scenario, star product, embedding) of a shipped deforming scenario."""
    scenario = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = build_star_product(scenario)
    return scenario, spec, build_tau_map(scenario, spec)[0]


@st.composite
def squares_and_states(draw):
    """A deforming scenario, a state of size N = 1 (the scenario's own) or
    N = 2 (two atoms with non-real vector entries) and the square f~ * f
    of a random N x N test element in the scenario's product."""
    scenario, spec, tau = _deforming(draw(st.sampled_from(DEFORMING)))
    n, K = scenario.n, scenario.K
    N = draw(st.sampled_from((1, 2)))
    state = scenario.state
    if N == 2:
        entry = gaussian_rationals().filter(lambda v: v.im)
        state = StateFunctional(n, 2, [
            (draw(st.tuples(*[fractions()] * n)), (draw(entry), draw(entry)))
            for _ in range(2)])
    f = MatrixLambdaPoly([[draw(lambda_polys(n, K, max_terms=2)) for _ in range(N)]
                          for _ in range(N)])
    return scenario, tau, state, star_squares(spec, [f])[0]


class TestMomentRoute:
    """`action` by the moment tables equals the per-entry reference on
    random squares of every deforming scenario, for both functionals.
    No shipped scenario has N > 1, so the N = 2 draws are what check the
    (i, j) compression of the moments."""

    @settings(max_examples=40, deadline=None)
    @given(squares_and_states())
    def test_action_equals_per_entry_reference(self, drawn):
        scenario, tau, state, g = drawn
        for omega in (DeformedFunctional(state, tau, scenario.K),
                      UndeformedExtension(state, scenario.K)):
            assert omega.action(g) == per_entry_action(omega, g)


class TestCheckPositivity:
    def test_undeformed_counterexample_negative(self, moyal_r2, delta0):
        omega = UndeformedExtension(delta0, K)
        verdict = positivity_verdict(omega, moyal_r2, [counterexample_test()])
        t = verdict.tests[0]
        assert t["coefficients"] == ["0", "-1"]
        assert t["classification"] == "negative"
        assert verdict.aggregate == "fail"

    def test_deformed_counterexample_positive(self, moyal_r2, fixture_tau_r2, delta0):
        omega = DeformedFunctional(delta0, fixture_tau_r2, K)
        verdict = positivity_verdict(omega, moyal_r2, [counterexample_test()])
        t = verdict.tests[0]
        assert t["coefficients"] == ["0", "1/4"]
        assert t["classification"] == "positive"
        assert verdict.aggregate == "pass"

    def test_zero_test_inconclusive(self, moyal_r2, fixture_tau_r2, delta0):
        omega = DeformedFunctional(delta0, fixture_tau_r2, K)
        verdict = positivity_verdict(omega, moyal_r2, [LambdaPoly(N_DIM, K)])
        assert verdict.tests[0]["classification"] == "zero_up_to_K"
        assert verdict.aggregate == "inconclusive"
        assert verdict.inconclusive

    def test_matrix_amplification(self, moyal_r2, fixture_tau_r2):
        state = StateFunctional(N_DIM, 2, [((0, 0), (gr(1), gr(0, 1)))])
        omega = DeformedFunctional(state, fixture_tau_r2, K)
        f = counterexample_test()
        m = MatrixLambdaPoly([
            [f, LambdaPoly.constant(N_DIM, K, 1)],
            [LambdaPoly(N_DIM, K), f],
        ])
        verdict = positivity_verdict(omega, moyal_r2, [m])
        assert verdict.tests[0]["classification"] != "negative"

    def test_reality_enforced(self, moyal_r2, delta0):
        # a broken "functional" that feeds back a complex series
        class Broken:
            N = 1
            n = N_DIM
            sound_order = K

            def describe(self):
                return {"kind": "broken"}

            def action(self, f):
                return (gr(0, 1),)

        with pytest.raises(NonRealSeries):
            positivity_verdict(Broken(), moyal_r2, [counterexample_test()])


class TestGlue:
    def test_single_unit_weight_identity(self, moyal_r2, delta0):
        omega = UndeformedExtension(delta0, K)
        glued = GluedFunctional(
            [(LambdaPoly.constant(N_DIM, K, 1), omega)], moyal_r2)
        f = scalar(lp(monomial(N_DIM, (1, 1), gr(2, 1))))
        assert glued.action(f) == omega.action(f)[: glued.sound_order + 1]

    def test_convex_combination(self, moyal_r2):
        d1 = UndeformedExtension(
            StateFunctional(N_DIM, 1, [((1, 0), (1,))]), K)
        d2 = UndeformedExtension(
            StateFunctional(N_DIM, 1, [((0, 1), (1,))]), K)
        chi1 = LambdaPoly.constant(N_DIM, K, Fraction(3, 5))
        chi2 = LambdaPoly.constant(N_DIM, K, Fraction(4, 5))
        glued = GluedFunctional([(chi1, d1), (chi2, d2)], moyal_r2)
        out = glued.action(scalar(lp(coordinate(N_DIM, 0))))
        # (9/25) f(1,0) + (16/25) f(0,1)
        assert str(out[0]) == "9/25"

    def test_partition_identity_enforced(self, moyal_r2, delta0):
        omega = UndeformedExtension(delta0, K)
        with pytest.raises(PartitionError):
            GluedFunctional(
                [(LambdaPoly.constant(N_DIM, K, Fraction(1, 2)), omega)], moyal_r2)

    def test_glued_positivity_verdict(self, moyal_r2, fixture_tau_r2, delta0):
        omega = DeformedFunctional(delta0, fixture_tau_r2, K)
        chi1 = LambdaPoly.constant(N_DIM, K, Fraction(3, 5))
        chi2 = LambdaPoly.constant(N_DIM, K, Fraction(4, 5))
        glued = GluedFunctional([(chi1, omega), (chi2, omega)], moyal_r2)
        verdict = positivity_verdict(glued, moyal_r2, [counterexample_test()])
        t = verdict.tests[0]
        assert t["classification"] == "positive"
        assert t["coefficients"] == ["0", "1/4"]
