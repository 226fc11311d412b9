import json
import random
from fractions import Fraction

import pytest
from hypothesis import given

from dqw.qpoly import DimensionMismatch, QPolynomial
from dqw.rationals import gr
from dqw.scenario import read_qpolynomial
from dqw.terms import exponents

from strategies import qpolynomials


def q(k, n=2):
    return QPolynomial.coordinate(n, k)


def test_canonical_no_zero_terms():
    p = q(0) - q(0)
    assert p.terms == {}
    assert p.is_zero()


def test_product_and_degree():
    p = (q(0) + q(1)) * (q(0) - q(1))
    assert p == QPolynomial(2, {(2, 0): gr(1), (0, 2): gr(-1)})
    assert p.degree() == 2
    assert QPolynomial.zero(2).degree() == -1


def test_diff():
    p = QPolynomial.monomial(2, (3, 1))
    assert p.diff(0) == QPolynomial.monomial(2, (2, 1), 3)
    assert p.diff(1) == QPolynomial.monomial(2, (3, 0))
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


def _seeded_poly(rng, n, terms=4, max_exp=3):
    return QPolynomial(n, {
        tuple(rng.randint(0, max_exp) for _ in range(n)):
            gr(rng.randint(-5, 5), rng.randint(-3, 3))
        for _ in range(terms)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_is_repeated_diff(n):
    rng = random.Random(n)
    for _ in range(8):
        p = _seeded_poly(rng, n)
        # |j| <= 4 with exponents <= 3, so some j exceed every exponent
        for total in range(5):
            for j in exponents(n, total):
                expected = p
                for k, e in enumerate(j):
                    for _ in range(e):
                        expected = expected.diff(k)
                assert p.derivative(j) == expected


def test_derivative_edges():
    p = QPolynomial.monomial(2, (3, 1), 2)
    assert p.derivative((0, 0)) == p
    assert p.derivative((3, 1)) == QPolynomial.constant(2, 12)
    assert p.derivative((4, 0)).is_zero()
    assert p.derivative((0, 2)).is_zero()


def test_evaluate():
    p = q(0) + q(1).scale(gr(0, 1))
    assert p.evaluate([1, 2]) == gr(1, 2)
    assert p.evaluate([Fraction(1, 2), 0]) == gr(Fraction(1, 2))
    with pytest.raises(DimensionMismatch):
        p.evaluate([1])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        q(0, 2) * QPolynomial.coordinate(3, 0)


@given(qpolynomials(), qpolynomials(), qpolynomials())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == QPolynomial.zero(2)


@given(qpolynomials(), qpolynomials())
def test_conjugation_is_ring_involution(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(qpolynomials())
def test_json_roundtrip_bit_exact(p):
    blob = json.dumps(p.to_json(), sort_keys=True)
    again = read_qpolynomial("poly", json.loads(blob), p.n)
    assert again == p
    assert json.dumps(again.to_json(), sort_keys=True) == blob
