import random
from fractions import Fraction

import pytest

from dqw.cobsolver import (CocyclePrecondition, solve_classical_coboundary,
                           solve_coboundary)
from dqw.cochain import MultiDiffCochain, coboundary
from dqw.qpoly import QPolynomial
from dqw.rationals import gr
from dqw.weyl import ConsistencyError

N, K = 2, 4
ZERO_IDX = (0, 0)
ONE = QPolynomial.constant(N, 1)


def random_arity1(rng, degree, terms=3, max_deriv=2, max_qdeg=1, n=N):
    """A random homogeneous 1-cochain of the given combined degree."""
    data = {}
    for _ in range(terms):
        a = rng.randint(0, degree)
        rest = degree - a
        idx = [0] * n
        for _ in range(rest):
            idx[rng.randrange(n)] += 1
        j = tuple(rng.randint(0, max_deriv) for _ in range(n))
        exp = tuple(rng.randint(0, max_qdeg) for _ in range(n))
        c = gr(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
        key = (a, tuple(idx), (j,))
        poly = QPolynomial.monomial(n, exp, c)
        if key in data:
            data[key] = data[key] + poly
        else:
            data[key] = poly
    return MultiDiffCochain(n, K, 1, data)


class TestRoundTrips:
    def test_second_derivative_example(self):
        psi0 = MultiDiffCochain(N, K, 1, {(0, ZERO_IDX, ((2, 0),)): ONE})
        phi = coboundary(psi0, True)
        psi, report = solve_coboundary(phi)
        assert coboundary(psi, True) == phi

    def test_antisymmetric_lambda_multiple(self):
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        psi, report = solve_coboundary(phi)
        assert coboundary(psi, True) == phi
        # the stated closed-form solution is also valid
        cand = MultiDiffCochain(N, K, 1, {(0, (0, 1), ((1, 0),)): ONE.scale(gr(0, 2))})
        assert coboundary(cand, True) == phi

    def test_zero_accepted(self):
        psi, _ = solve_coboundary(MultiDiffCochain.zero(N, K, 2))
        assert psi.is_zero()

    def test_seeded_roundtrips(self):
        rng = random.Random(2024)
        solved = 0
        for _ in range(50):
            src = random_arity1(rng, rng.randint(0, 3))
            tgt = coboundary(src, True)
            if tgt.is_zero():
                continue
            psi, _ = solve_coboundary(tgt)
            assert coboundary(psi, True) == tgt
            solved += 1
        assert solved >= 30

    def test_seeded_roundtrips_n3(self):
        rng = random.Random(2025)
        solved = with_potential = 0
        for _ in range(30):
            src = random_arity1(rng, rng.randint(0, 3), n=3)
            tgt = coboundary(src, True)
            if tgt.is_zero():
                continue
            psi, report = solve_coboundary(tgt)
            assert coboundary(psi, True) == tgt
            solved += 1
            with_potential += bool(report.potential_levels)
        assert solved >= 20 and with_potential >= 3

    def test_lambda_biderivation_with_polynomial_coefficients(self):
        c = QPolynomial.monomial(N, (2, 1))
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): c,
            (1, ZERO_IDX, ((0, 1), (1, 0))): -c,
        })
        psi, _ = solve_coboundary(phi)
        assert coboundary(psi, True) == phi

    def test_direct_route_matches_preconditioned_route(self):
        # a classical level under a lam-level, with both derivative orders;
        # skipping the precondition check must not change the solution
        psi0 = MultiDiffCochain(N, K, 1, {
            (0, (1, 0), ((1, 1),)): ONE,
            (1, ZERO_IDX, ((0, 2),)): QPolynomial.coordinate(N, 1),
        })
        tgt = coboundary(psi0, True)
        checked, _ = solve_coboundary(tgt)
        direct, _ = solve_coboundary(tgt, check_preconditions=False)
        assert coboundary(checked, True) == tgt
        assert coboundary(direct, True) == tgt
        assert direct == checked


class TestPreconditions:
    def test_non_cocycle_rejected_with_witness(self):
        phi = MultiDiffCochain(N, K, 2, {(0, ZERO_IDX, ((1, 0), (2, 0))): ONE})
        with pytest.raises(CocyclePrecondition) as exc:
            solve_coboundary(phi)
        assert "witness" in str(exc.value)

    def test_antisymmetric_classical_part_rejected(self):
        phi = MultiDiffCochain(N, K, 2, {
            (0, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (0, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        with pytest.raises(CocyclePrecondition) as exc:
            solve_coboundary(phi)
        assert "antisymmetric" in str(exc.value)

    def test_unchecked_non_cocycles_raise(self):
        z = ZERO_IDX
        classical_antisymmetric = MultiDiffCochain(N, K, 2, {
            (0, z, ((1, 0), (0, 1))): ONE, (0, z, ((0, 1), (1, 0))): -ONE})
        not_a_biderivation = MultiDiffCochain(N, K, 2, {
            (1, z, ((2, 0), (0, 1))): ONE, (1, z, ((0, 1), (2, 0))): -ONE})
        first_order = MultiDiffCochain(N, K, 2, {
            (0, z, ((1, 0), z)): ONE, (0, z, (z, (1, 0))): ONE})
        for phi in (classical_antisymmetric, not_a_biderivation, first_order):
            with pytest.raises(ConsistencyError):
                solve_coboundary(phi, check_preconditions=False)

    def test_inhomogeneous_rejected(self):
        phi = coboundary(MultiDiffCochain(N, K, 1, {
            (0, ZERO_IDX, ((2, 0),)): ONE,
            (0, (0, 1), ((1, 0),)): ONE,
        }), True)
        assert phi.degrees() == {0, 1}
        with pytest.raises(ValueError):
            solve_coboundary(phi)


class TestClassicalStage:
    def test_hkr_on_seeded_coboundaries(self):
        rng = random.Random(77)
        solved = 0
        for _ in range(25):
            data = {}
            for _ in range(3):
                idx = tuple(rng.randint(0, 2) for _ in range(N))
                j = tuple(rng.randint(0, 2) for _ in range(N))
                exp = tuple(rng.randint(0, 1) for _ in range(N))
                key = (0, idx, (j,))
                poly = QPolynomial.monomial(N, exp, gr(rng.randint(-3, 3)))
                data[key] = data[key] + poly if key in data else poly
            src = MultiDiffCochain(N, K, 1, data)
            tgt = coboundary(src, False)
            if tgt.is_zero():
                continue
            psi = solve_classical_coboundary(tgt)
            assert psi is not None
            assert coboundary(psi, False) == tgt
            solved += 1
        assert solved >= 15

    def test_obstructed_classical_target_returns_none(self):
        phi = MultiDiffCochain(N, K, 2, {
            (0, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (0, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        assert solve_classical_coboundary(phi) is None


class TestLimits:
    def test_report_records_bounds(self):
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        psi, report = solve_coboundary(phi)
        assert report.to_json() == {"degree": 1, "potential_levels": [1]}
