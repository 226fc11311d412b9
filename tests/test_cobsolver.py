import random
from fractions import Fraction

import pytest

import dqw.cobsolver
from dqw.cobsolver import (CocyclePrecondition, check_solvability_preconditions,
                           solve_classical_coboundary, solve_coboundary,
                           solve_sparse_system)
from dqw.cochain import MultiDiffCochain, coboundary
from dqw.qpoly import QPolynomial
from dqw.starspec import make_linear_poisson_2d_star
from dqw.terms import exponents
from dqw.weyl import ConsistencyError

from strategies import gr, monomial

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
        poly = monomial(n, exp, c)
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
        psi, _ = solve_coboundary(MultiDiffCochain(N, K, 2))
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
        c = monomial(N, (2, 1))
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): c,
            (1, ZERO_IDX, ((0, 1), (1, 0))): -c,
        })
        psi, _ = solve_coboundary(phi)
        assert coboundary(psi, True) == phi


class TestPreconditions:
    def test_non_cocycle_rejected_with_witness(self):
        phi = MultiDiffCochain(N, K, 2, {(0, ZERO_IDX, ((1, 0), (2, 0))): ONE})
        with pytest.raises(CocyclePrecondition) as exc:
            check_solvability_preconditions(phi)
        assert "witness" in str(exc.value)

    def test_antisymmetric_classical_part_rejected(self):
        phi = MultiDiffCochain(N, K, 2, {
            (0, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (0, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        with pytest.raises(CocyclePrecondition) as exc:
            check_solvability_preconditions(phi)
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
                solve_coboundary(phi)

    def test_inhomogeneous_rejected(self):
        phi = coboundary(MultiDiffCochain(N, K, 1, {
            (0, ZERO_IDX, ((2, 0),)): ONE,
            (0, (0, 1), ((1, 0),)): ONE,
        }), True)
        assert phi.degrees() == {0, 1}
        with pytest.raises(ValueError):
            solve_coboundary(phi)


def _deriv_vectors(n, slots, total):
    """All tuples of `slots` multi-indices with total order exactly `total`."""
    if slots == 0:
        return [()] if total == 0 else []
    return [(head,) + rest
            for head_total in range(total + 1)
            for head in exponents(n, head_total)
            for rest in _deriv_vectors(n, slots - 1, total - head_total)]


def _eliminator_reference(target):
    """The per-block Gauss-Jordan solve of d0(psi) = target over the
    normalized columns: the reference for `solve_classical_coboundary`."""
    n, K = target.n, target.K
    blocks = {}
    for (a, idx, jvec, exp), c in target.terms.items():
        t = sum(sum(j) for j in jvec)
        blocks.setdefault((a, idx, exp, t), {})[jvec] = c
    flat = {}
    for (a, idx, exp, t), rhs in sorted(blocks.items()):
        unknowns = [jv for jv in _deriv_vectors(n, 2, t)
                    if all(sum(j) >= 1 for j in jv)]
        if not unknowns:
            return None
        columns = {}
        for jv in unknowns:
            basis = MultiDiffCochain(n, K, 2, {(a, idx, jv): QPolynomial.constant(n, 1)})
            image = coboundary(basis, deformed=False)
            columns[jv] = [(key[:3], c2) for key, c2 in image.terms.items()]
        rhs_map = {(a, idx, jv): c for jv, c in rhs.items()}
        order = sorted(unknowns, key=lambda jv: (max(sum(j) for j in jv), jv))
        sol = solve_sparse_system(columns, rhs_map, order)
        if sol is None:
            return None
        for jv, c in sol.items():
            flat[(a, idx, jv, exp)] = c
    return MultiDiffCochain(n, K, 2, flat)


def random_normalized_arity2(rng, n, terms=3, max_order=2):
    """A random 2-cochain whose derivative slots have orders 1..max_order."""
    data = {}
    for _ in range(terms):
        a = rng.randint(0, 1)
        idx = tuple(rng.randint(0, 1) for _ in range(n))
        jvec = tuple(rng.choice(list(exponents(n, rng.randint(1, max_order))))
                     for _ in range(2))
        exp = tuple(rng.randint(0, 1) for _ in range(n))
        c = gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
        key = (a, idx, jvec)
        poly = monomial(n, exp, c)
        data[key] = data[key] + poly if key in data else poly
    return MultiDiffCochain(n, K, 2, data)


def _trivector():
    """D_1 ^ D_2 ^ D_3 in n = 3: a normalized classical 3-cocycle that is
    not exact."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    terms = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        terms[(0, (0, 0, 0), tuple(units[p] for p in perm))] = \
            QPolynomial.constant(3, sign)
    return MultiDiffCochain(3, K, 3, terms)


class TestClassicalStage:
    def test_hkr_on_seeded_coboundaries(self):
        # normalized arity-3 coboundaries, n = 1..3, several blocks each:
        # the closed form solves them and equals the eliminator
        for n, seed, max_order in ((1, 11, 3), (2, 12, 3), (3, 13, 2)):
            rng = random.Random(seed)
            solved = 0
            for _ in range(75):
                tgt = coboundary(
                    random_normalized_arity2(rng, n, max_order=max_order), False)
                if tgt.is_zero():
                    continue
                psi = solve_classical_coboundary(tgt)
                assert psi is not None
                assert coboundary(psi, False) == tgt
                assert psi == _eliminator_reference(tgt)
                solved += 1
            assert solved >= 60, (n, solved)

    def test_obstructed_classical_target_returns_none(self):
        phi = _trivector()
        assert coboundary(phi, False).is_zero()
        assert solve_classical_coboundary(phi) is None
        assert _eliminator_reference(phi) is None
        # an exact target plus the obstruction is still obstructed
        exact = coboundary(random_normalized_arity2(random.Random(5), 3), False)
        assert solve_classical_coboundary(exact + phi) is None
        assert _eliminator_reference(exact + phi) is None

    def test_rejects_targets_outside_its_domain(self):
        arity2 = MultiDiffCochain(N, K, 2, {(0, ZERO_IDX, ((1, 0), (1, 0))): ONE})
        unnormalized = MultiDiffCochain(N, K, 3, {
            (0, ZERO_IDX, ((1, 0), ZERO_IDX, (0, 1))): ONE})
        for phi in (arity2, unnormalized):
            with pytest.raises(ValueError):
                solve_classical_coboundary(phi)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_linear_generator_matches_the_eliminator(self, order, monkeypatch):
        spec = make_linear_poisson_2d_star(order)
        monkeypatch.setattr(dqw.cobsolver, "solve_classical_coboundary",
                            _eliminator_reference)
        assert make_linear_poisson_2d_star(order).to_json() == spec.to_json()


class TestLimits:
    def test_report_records_bounds(self):
        phi = MultiDiffCochain(N, K, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE,
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-1),
        })
        psi, report = solve_coboundary(phi)
        assert report.to_json() == {"potential_levels": [1]}
