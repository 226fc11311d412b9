"""The momentum Koszul complex: the reference forms, d_p and homotopy of
`tests/oracles.py`, and the solver's axial step checked against them."""

import random
from fractions import Fraction

import pytest

from dqw.cobsolver import _axial_potential
from dqw.qpoly import QPolynomial
from dqw.terms import accumulate
from dqw.weyl import ConsistencyError

from oracles import KoszulForm, d_p, euler_contraction, poincare_homotopy

N = 3
ONE = QPolynomial.constant(N, 1)


def axial_potential(w: KoszulForm) -> KoszulForm:
    """The solver's axial step on the terms of a 2-form, as a 1-form."""
    x = _axial_potential({(k, l, idx, exp): c for (idx, (k, l), exp), c in w.terms.items()},
                         w.n, 1)
    return KoszulForm(w.n, 1, {(idx, (l,), exp): c for (l, idx, exp), c in x.items()})


def random_form(rng, degree, n=N, terms=3):
    data = {}
    for _ in range(terms):
        idx = tuple(rng.randint(0, 2) for _ in range(n))
        sel = tuple(sorted(rng.sample(range(n), degree)))
        exp = tuple(rng.randint(0, 1) for _ in range(n))
        accumulate(data, (idx, sel, exp), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return KoszulForm(n, degree, data)


def test_weighted_contraction_on_momentum_monomial():
    w = KoszulForm(N, 1, {((1, 0, 0), (1,)): ONE})
    h = poincare_homotopy(w)
    assert h == KoszulForm(N, 0, {((1, 1, 0), ()): ONE.scale(Fraction(1, 2))})
    assert d_p(h) + poincare_homotopy(d_p(w)) == w


def test_contraction_of_two_form():
    w = KoszulForm(N, 2, {((0, 0, 0), (0, 1)): ONE})
    h = poincare_homotopy(w)
    expect = KoszulForm(N, 1, {((1, 0, 0), (1,)): ONE.scale(Fraction(1, 2)),
                               ((0, 1, 0), (0,)): ONE.scale(Fraction(-1, 2))})
    assert h == expect


def test_weight_one_form():
    w = KoszulForm(N, 1, {((0, 0, 0), (0,)): ONE})
    assert poincare_homotopy(w) == KoszulForm(N, 0, {((1, 0, 0), ()): ONE})


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        poincare_homotopy(KoszulForm(N, 0, {((1, 0, 0), ()): ONE}))


def test_d_p_squared_zero():
    rng = random.Random(1)
    for degree in range(0, N):
        w = random_form(rng, degree)
        assert d_p(d_p(w)).is_zero()


def test_antisymmetry_is_structural():
    with pytest.raises(ValueError):
        KoszulForm(N, 2, {((0, 0, 0), (1, 0)): ONE})
    with pytest.raises(ValueError):
        KoszulForm(N, 2, {((0, 0, 0), (1, 1)): ONE})


def test_homotopy_identity_on_random_forms():
    rng = random.Random(7)
    for degree in range(1, N + 1):
        for _ in range(8):
            w = random_form(rng, degree)
            lhs = d_p(poincare_homotopy(w))
            dw = d_p(w)
            if dw.degree <= N and not dw.is_zero():
                lhs = lhs + poincare_homotopy(dw)
            assert lhs == w


def test_euler_contraction_squares_to_zero():
    rng = random.Random(9)
    w = random_form(rng, 2)
    assert euler_contraction(euler_contraction(w)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_axial_potential_of_exact_forms(n):
    rng = random.Random(100 + n)
    nonzero = 0
    for _ in range(6):
        w = d_p(random_form(rng, 1, n=n))
        x = axial_potential(w)
        assert d_p(x) == w == d_p(poincare_homotopy(w))
        assert all(sel != (n - 1,) for (_idx, sel, _exp) in x.terms)
        nonzero += bool(w)
    assert nonzero >= 5


def test_axial_potential_rejects_non_closed_form():
    w = KoszulForm(N, 2, {((1, 0, 0), (1, 2)): ONE})
    assert not d_p(w).is_zero()
    with pytest.raises(ConsistencyError,
                       match="antisymmetric part at lam-level 1 is not closed"):
        axial_potential(w)
