from fractions import Fraction

import pytest
from hypothesis import given, settings

from dqw.qpoly import DimensionMismatch, QPolynomial
from dqw.rationals import gr
from dqw.welement import (LambdaPoly, RealLambdaSeries, SeriesSign, WElement,
                          real_series_from_complex)

from strategies import real_series, welements

N, K = 2, 4


def q(k):
    return WElement.coordinate_q(N, K, k)


def p(k):
    return WElement.coordinate_p(N, K, k)


def lam(power=1):
    return WElement.lam(N, K, power)


class TestMultiply:
    def test_monomial_product(self):
        assert q(0) * p(0) == WElement.monomial(N, K, 0, (1, 0), (1, 0))

    def test_difference_of_squares(self):
        assert (q(0) + lam()) * (q(0) - lam()) == q(0) * q(0) - lam(2)

    def test_truncation_policy(self):
        one = WElement.lam(N, 1)
        assert one * one == WElement.zero(N, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q(0) * WElement.coordinate_q(3, K, 0)


class TestDerivatives:
    def test_power_rule(self):
        x = q(0) * p(0) * p(0)
        assert x.diff_p(0) == q(0) * p(0) * WElement.constant(N, K, 2)

    def test_independent_variable(self):
        assert p(1).diff_q(0).is_zero()

    def test_mixed_partials_commute(self):
        x = q(0) * p(0)
        assert x.diff_q(0).diff_p(0) == x.diff_p(0).diff_q(0)
        assert x.diff_q(0).diff_p(0) == WElement.constant(N, K, 1)


class TestDegOperator:
    def test_eigenvalue_two(self):
        x = lam() * p(0) * q(0)
        assert x.degree_image() == x.scale(2)

    def test_degree_zero(self):
        assert (q(0) * q(1)).degree_image().is_zero()

    def test_termwise(self):
        x = p(0) * p(0) * lam()
        assert x.degree_image() == x.scale(3)


class TestEvaluate:
    def test_counterexample_element(self):
        x = q(0) * q(0) + p(0) * p(0) - lam()
        coeffs = x.evaluate([0, 0], [0, 0])
        assert [str(c) for c in coeffs] == ["0", "-1", "0", "0", "0"]

    def test_complex_point(self):
        x = q(0) + q(1).scale(gr(0, 1))
        assert x.evaluate([1, 2], [0, 0])[0] == gr(1, 2)

    def test_lambda_survives(self):
        assert lam(2).evaluate([1, 1], [1, 1])[2] == gr(1)


class TestSeriesSign:
    def test_positive(self):
        s = RealLambdaSeries([0, Fraction(3, 4), -5])
        assert s.sign() == SeriesSign.POSITIVE

    def test_negative(self):
        assert RealLambdaSeries([0, -1]).sign() == SeriesSign.NEGATIVE

    def test_zero_up_to_k(self):
        assert RealLambdaSeries([0, 0, 0]).sign() == SeriesSign.ZERO_UP_TO_K

    @given(real_series(), real_series())
    def test_invariant_under_positive_leading_factor(self, s, t):
        lead = Fraction(abs(t.coeffs[0]) + 1)
        t_pos = RealLambdaSeries((lead,) + t.coeffs[1:])
        assert (s * t_pos).sign() == s.sign()


def test_real_series_rejects_imaginary():
    from dqw.welement import NonRealSeries
    with pytest.raises(NonRealSeries):
        real_series_from_complex((gr(0, 1),))


class TestAlgebraLaws:
    @settings(max_examples=40)
    @given(welements(), welements(), welements())
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(welements())
    def test_canonical_uniqueness(self, a):
        assert (a - a).terms == {}

    @given(welements(), welements())
    def test_deg_is_derivation(self, a, b):
        assert (a * b).degree_image() == a.degree_image() * b + a * b.degree_image()

    @given(welements(), welements())
    def test_conjugation_involution(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    @given(welements())
    def test_component_decomposition(self, a):
        total = WElement.zero(N, K)
        for d in range(K + 1):
            comp = a.component(d)
            assert comp.degree_image() == comp.scale(d)
            total = total + comp
        assert total == a


def test_lambda_poly_arithmetic():
    f = LambdaPoly.from_poly(QPolynomial.coordinate(N, 0), K)
    g = LambdaPoly.constant(N, K, 2).shift_lam(K)
    assert (f + g).coefficient(K) == QPolynomial.constant(N, 2)
    assert (f * f).coefficient(0) == QPolynomial.monomial(N, (2, 0))
    # truncation in the pointwise product
    h = LambdaPoly.constant(N, K, 1).shift_lam(3)
    assert (h * h).is_zero()


def test_lambda_poly_json_roundtrip():
    """An explicit test's lam-series literal parses to the series it names."""
    data = {"n": N, "max_order": K,
            "coeffs": [{"lam": 0, "poly": [[[1, 0], "1"]]},
                       {"lam": 2, "poly": [[[0, 0], "1-2 i"]]}]}
    f = LambdaPoly(N, K, {0: QPolynomial.coordinate(N, 0),
                          2: QPolynomial.constant(N, gr(1, -2))})
    assert LambdaPoly.from_json(data) == f
