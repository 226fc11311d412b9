import random
from fractions import Fraction

import pytest

from dqw.cobsolver import (CocyclePrecondition, ConfigurationError, SolverConfig,
                           SolverLimitExceeded, solve_classical_coboundary,
                           solve_coboundary)
from dqw.cochain import MultiDiffCochain, coboundary
from dqw.qpoly import QPolynomial
from dqw.rationals import gr

N, K = 2, 4
ZERO_IDX = (0, 0)
ONE = QPolynomial.constant(N, 1)


def random_arity1(rng, degree, terms=3, max_deriv=2, max_qdeg=1):
    """A random homogeneous 1-cochain of the given combined degree."""
    data = {}
    for _ in range(terms):
        a = rng.randint(0, degree)
        rest = degree - a
        idx = [0] * N
        for _ in range(rest):
            idx[rng.randrange(N)] += 1
        j = tuple(rng.randint(0, max_deriv) for _ in range(N))
        exp = tuple(rng.randint(0, max_qdeg) for _ in range(N))
        c = gr(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
        key = (a, tuple(idx), (j,))
        poly = QPolynomial.monomial(N, exp, c)
        if key in data:
            data[key] = data[key] + poly
        else:
            data[key] = poly
    return MultiDiffCochain(N, K, 1, data)


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
            degree = rng.randint(0, 3)
            src = random_arity1(rng, degree)
            tgt = coboundary(src, True)
            if tgt.is_zero():
                continue
            psi, _ = solve_coboundary(tgt)
            assert coboundary(psi, True) == tgt
            solved += 1
        assert solved >= 30

    def test_lambda_biderivation_with_polynomial_coefficients(self):
        c = QPolynomial.monomial(N, (2, 1))
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): c,
            (1, ZERO_IDX, ((0, 1), (1, 0))): -c,
        })
        psi, _ = solve_coboundary(phi)
        assert coboundary(psi, True) == phi

    def test_direct_route_matches_preconditioned_route(self):
        psi0 = MultiDiffCochain(N, K, 1, {
            (0, (1, 0), ((1, 1),)): ONE,
            (1, ZERO_IDX, ((0, 2),)): QPolynomial.coordinate(N, 1),
        })
        tgt = coboundary(psi0, True)
        with_pre, _ = solve_coboundary(tgt, SolverConfig(use_preconditioner=True))
        without, _ = solve_coboundary(tgt, SolverConfig(use_preconditioner=False))
        assert coboundary(with_pre, True) == tgt
        assert coboundary(without, True) == tgt


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
    def test_cell_cap(self, monkeypatch):
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        for cap, error in (("1", SolverLimitExceeded), ("abc", ConfigurationError)):
            monkeypatch.setenv("DQW_MAX_SOLVER_CELLS", cap)
            with pytest.raises(error, match="DQW_MAX_SOLVER_CELLS"):
                solve_coboundary(phi, SolverConfig(use_preconditioner=False))

    def test_report_records_bounds(self):
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        psi, report = solve_coboundary(phi, SolverConfig(use_preconditioner=False))
        assert report.bounds_tried
        assert report.to_json()["degree"] == 1
