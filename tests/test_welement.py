from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqw.functionals import check_positivity
from dqw.qpoly import DimensionMismatch, QPolynomial
from dqw.scenario import read_lambda_poly
from dqw.welement import LambdaPoly, NonRealSeries, SeriesSign, WElement

from oracles import degree_image, evaluate, iota_star, shift_lam
from strategies import (coordinate, element, gaussian_rationals, gr, lam_power,
                        lambda_polys, momentum, real_series, series, welements)

N, K = 2, 4


def q(k):
    return element(coordinate(N, k), K)


def p(k):
    return momentum(N, K, k)


def lam(power=1):
    return lam_power(N, K, power)


class TestMultiply:
    def test_monomial_product(self):
        assert q(0) * p(0) == WElement(N, K, {(0, (1, 0), (1, 0)): 1})

    def test_difference_of_squares(self):
        assert (q(0) + lam()) * (q(0) - lam()) == q(0) * q(0) - lam(2)

    def test_truncation_policy(self):
        one = lam_power(N, 1)
        assert one * one == WElement(N, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q(0) * element(coordinate(3, 0), K)


class TestDerivatives:
    def test_power_rule(self):
        x = q(0) * p(0) * p(0)
        assert x.diff_p(0) == q(0) * p(0) * element(QPolynomial.constant(N, 2), K)

    def test_independent_variable(self):
        assert p(1).diff_q(0).is_zero()

    def test_mixed_partials_commute(self):
        x = q(0) * p(0)
        assert x.diff_q(0).diff_p(0) == x.diff_p(0).diff_q(0)
        assert x.diff_q(0).diff_p(0) == element(QPolynomial.constant(N, 1), K)


class TestDegOperator:
    def test_eigenvalue_two(self):
        x = lam() * p(0) * q(0)
        assert degree_image(x) == x.scale(2)

    def test_degree_zero(self):
        assert degree_image(q(0) * q(1)).is_zero()

    def test_termwise(self):
        x = p(0) * p(0) * lam()
        assert degree_image(x) == x.scale(3)


class TestEvaluate:
    """An element is evaluated as the reference route
    (`oracles.per_entry_action`) does: its momenta set to zero
    (`iota_star`), then the base series at a point."""

    def test_counterexample_element(self):
        x = q(0) * q(0) + p(0) * p(0) - lam()
        coeffs = evaluate(iota_star(x), [0, 0])
        assert [str(c) for c in coeffs] == ["0", "-1", "0", "0", "0"]

    def test_complex_point(self):
        x = q(0) + q(1).scale(gr(0, 1))
        assert evaluate(iota_star(x), [1, 2])[0] == gr(1, 2)

    def test_lambda_survives(self):
        assert evaluate(iota_star(lam(2)), [1, 1])[2] == gr(1)

    @given(lambda_polys(), st.tuples(gaussian_rationals(), gaussian_rationals()))
    def test_shared_powers_match_termwise_powers(self, f, point):
        expect = [gr(0)] * (f.K + 1)
        for (r, exp), c in f.terms.items():
            for x, e in zip(point, exp):
                c = c * x ** e
            expect[r] = expect[r] + c
        assert evaluate(f, point) == tuple(expect)


class _Identity:
    """A stub functional whose value on a square is the square itself."""

    def describe(self):
        return {}

    def action(self, series):
        return series


def classify(coeffs):
    """check-pos's verdict on one lam-series, given by its coefficients."""
    (test,) = check_positivity(_Identity(), [tuple(map(gr, coeffs))], ["s"]).tests
    return test


class TestSeriesSign:
    def test_positive(self):
        t = classify([0, Fraction(3, 4), -5, 0, 0])
        assert t.classification == SeriesSign.POSITIVE
        assert t.coefficients == ["0", "3/4", "-5"]

    def test_negative(self):
        assert classify([0, -1]).classification == SeriesSign.NEGATIVE

    def test_zero_up_to_k(self):
        t = classify([0, 0, 0])
        assert t.classification == SeriesSign.ZERO_UP_TO_K
        assert t.coefficients == ["0"]

    @given(real_series(), real_series())
    def test_invariant_under_positive_leading_factor(self, s, t):
        t_pos = (Fraction(abs(t[0]) + 1),) + t[1:]
        product = [sum(s[i] * t_pos[r - i] for i in range(r + 1)) for r in range(len(s))]
        assert classify(product).classification == classify(s).classification


def test_real_series_rejects_imaginary():
    with pytest.raises(NonRealSeries,
                       match=r"omega\(f~ \* f\) for s: lam\^1 coefficient has "
                             "nonzero imaginary part 1"):
        check_positivity(_Identity(), [(gr(1), gr(0, 1))], ["s"])


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
        assert degree_image(a * b) == degree_image(a) * b + a * degree_image(b)

    @given(welements(), welements())
    def test_conjugation_involution(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    @given(welements())
    def test_component_decomposition(self, a):
        total = WElement(N, K)
        for d in range(K + 1):
            comp = a.component(d)
            assert degree_image(comp) == comp.scale(d)
            total = total + comp
        assert total == a


def test_lambda_poly_arithmetic():
    f = series(coordinate(N, 0), K)
    g = shift_lam(LambdaPoly.constant(N, K, 2), K)
    assert {k: c for k, c in (f + g).terms.items() if k[0] == K} == {(K, (0, 0)): gr(2)}
    assert {k: c for k, c in (f * f).terms.items() if k[0] == 0} == {(0, (2, 0)): gr(1)}
    # truncation in the pointwise product
    h = shift_lam(LambdaPoly.constant(N, K, 1), 3)
    assert (h * h).is_zero()


def test_lambda_poly_json_roundtrip():
    """An explicit test's lam-series literal parses to the series it names."""
    data = {"n": N, "max_order": K,
            "coeffs": [{"lam": 0, "poly": [[[1, 0], "1"]]},
                       {"lam": 2, "poly": [[[0, 0], "1-2 i"]]}]}
    f = LambdaPoly(N, K, {(0,): coordinate(N, 0),
                          (2,): QPolynomial.constant(N, gr(1, -2))})
    assert read_lambda_poly("f", data, N) == f
