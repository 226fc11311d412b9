import json
import random
from fractions import Fraction

import pytest
from hypothesis import given

from dqw.qpoly import DimensionMismatch, QPolynomial
from dqw.scenario import read_qpolynomial
from dqw.terms import exponents, shift
from dqw.welement import LambdaPoly

from oracles import evaluate
from strategies import coordinate, gr, qpolynomials


def q(k, n=2):
    return coordinate(n, k)


def test_canonical_no_zero_terms():
    p = q(0) - q(0)
    assert p.terms == {}
    assert p.is_zero()


def test_product():
    p = (q(0) + q(1)) * (q(0) - q(1))
    assert p == QPolynomial(2, {(2, 0): gr(1), (0, 2): gr(-1)})


# The calculus of base functions lives on lam-series: D^j and evaluation
# act on every lam-coefficient of a LambdaPoly.

def lp(terms, n=2, K=2):
    return LambdaPoly(n, K, terms)


def _diff(f, k):
    """d/dq^k, one coordinate at a time."""
    return lp({(r, shift(e, k, -1)): c * e[k] for (r, e), c in f.terms.items() if e[k]},
              f.n, f.K)


def test_diff():
    p = lp({(0, (3, 1)): 1, (1, (1, 2)): 2})
    assert p.derivative((1, 0)) == lp({(0, (2, 1)): 3, (1, (0, 2)): 2})
    assert p.derivative((0, 1)) == lp({(0, (3, 0)): 1, (1, (1, 1)): 4})
    assert p.derivative((1, 0)).derivative((0, 1)) == p.derivative((0, 1)).derivative((1, 0))


def _seeded_series(rng, n, terms=4, max_exp=3):
    return lp({
        (rng.randint(0, 2), tuple(rng.randint(0, max_exp) for _ in range(n))):
            gr(rng.randint(-5, 5), rng.randint(-3, 3))
        for _ in range(terms)}, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_is_repeated_diff(n):
    rng = random.Random(n)
    for _ in range(8):
        p = _seeded_series(rng, n)
        # |j| <= 4 with exponents <= 3, so some j exceed every exponent
        for total in range(5):
            for j in exponents(n, total):
                expected = p
                for k, e in enumerate(j):
                    for _ in range(e):
                        expected = _diff(expected, k)
                assert p.derivative(j) == expected


def test_derivative_edges():
    p = lp({(1, (3, 1)): 2})
    assert p.derivative((0, 0)) == p
    assert p.derivative((3, 1)) == lp({(1, (0, 0)): 12})
    assert p.derivative((4, 0)).is_zero()
    assert p.derivative((0, 2)).is_zero()


def test_evaluate():
    p = lp({(0, (1, 0)): 1, (0, (0, 1)): gr(0, 1), (2, (1, 1)): 3})
    assert evaluate(p, [1, 2]) == (gr(1, 2), gr(0), gr(6))
    assert evaluate(p, [Fraction(1, 2), 0]) == (gr(Fraction(1, 2)), gr(0), gr(0))
    with pytest.raises(DimensionMismatch):
        evaluate(p, [1])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        q(0, 2) * coordinate(3, 0)


@given(qpolynomials(), qpolynomials(), qpolynomials())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == QPolynomial(2)


@given(qpolynomials(), qpolynomials())
def test_conjugation_is_ring_involution(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(qpolynomials())
def test_json_roundtrip_bit_exact(p):
    blob = json.dumps(p.to_json(), sort_keys=True)
    again = QPolynomial(p.n, read_qpolynomial("poly", json.loads(blob), p.n))
    assert again == p
    assert json.dumps(again.to_json(), sort_keys=True) == blob
