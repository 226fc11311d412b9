import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqw import weyl
from dqw.qpoly import DimensionMismatch, QPolynomial
from dqw.rationals import HALF_I, I
from dqw.welement import LambdaPoly, WElement
from dqw.weyl import (LAPLACIAN, WEYL_PAIRING, WICK_PAIRING, ConsistencyError,
                      _equivalence_signs, exp_laplace_exact, resolve_fock_sign)

from oracles import (MatrixWElement, canonical_bracket, check_sign_on_pair, degree_image,
                     exp_laplace_lifted, fock_equivalence, iota_star, monomial_basis,
                     pi_star, weyl_product, wick_product, zero_momentum_reference)
from strategies import (coordinate, element, gr, lam_power, momentum, monomial, series,
                        welements)

N, K = 2, 4


def q(k, n=N, KK=K):
    return element(coordinate(n, k), KK)


def p(k, n=N, KK=K):
    return momentum(n, KK, k)


def lam(power=1, n=N, KK=K):
    return lam_power(n, KK, power)


class TestWeylProduct:
    def test_q_p_commutator(self):
        half_i = gr(0, Fraction(1, 2))
        assert weyl_product(q(0), p(0)) == q(0) * p(0) + lam().scale(half_i)
        assert weyl_product(p(0), q(0)) == q(0) * p(0) - lam().scale(half_i)

    def test_annihilation_pair(self):
        a = q(0) - p(0).scale(I)
        b = q(0) + p(0).scale(I)
        assert weyl_product(a, b) == q(0) * q(0) + p(0) * p(0) - lam()

    def test_base_functions_multiply_pointwise(self):
        f = q(0) * q(1) + q(0)
        g = q(1) * q(1)
        assert weyl_product(f, g) == f * g

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weyl_product(q(0), element(coordinate(3, 0), K))


class TestWickProduct:
    def test_z_zbar(self):
        z = q(0) + p(0).scale(I)
        zb = q(0) - p(0).scale(I)
        assert wick_product(z, zb) == z * zb + lam().scale(2)

    def test_zbar_z_no_correction(self):
        z = q(0) + p(0).scale(I)
        zb = q(0) - p(0).scale(I)
        assert wick_product(zb, z) == zb * z

    def test_commutators_agree_with_weyl(self):
        z = q(0) + p(0).scale(I)
        zb = q(0) - p(0).scale(I)
        wick_comm = wick_product(z, zb) - wick_product(zb, z)
        assert wick_comm == lam().scale(2)
        assert wick_comm == weyl_product(z, zb) - weyl_product(zb, z)


class TestAssociativityAndSymmetry:
    def _monomials(self, max_deg):
        out = []
        for (a, pi, qe) in monomial_basis(N, max_deg):
            if a == 0:
                out.append(WElement(N, K, {(0, pi, qe): 1}))
        return out

    def test_weyl_associative_on_monomials(self):
        basis = self._monomials(2)
        for a, b, c in itertools.product(basis, repeat=3):
            lhs = weyl_product(weyl_product(a, b), c)
            rhs = weyl_product(a, weyl_product(b, c))
            assert lhs == rhs

    def test_wick_associative_on_monomials(self):
        basis = self._monomials(2)
        for a, b, c in itertools.product(basis, repeat=3):
            lhs = wick_product(wick_product(a, b), c)
            rhs = wick_product(a, wick_product(b, c))
            assert lhs == rhs

    @settings(max_examples=30)
    @given(welements(), welements())
    def test_deg_is_derivation_of_weyl(self, a, b):
        lhs = degree_image(weyl_product(a, b))
        rhs = weyl_product(degree_image(a), b) + weyl_product(a, degree_image(b))
        assert lhs == rhs

    @settings(max_examples=30)
    @given(welements(), welements())
    def test_weyl_hermitian(self, a, b):
        lhs = weyl_product(a, b).conjugate()
        rhs = weyl_product(b.conjugate(), a.conjugate())
        assert lhs == rhs

    @settings(max_examples=20)
    @given(welements(), welements())
    def test_graded_product(self, a, b):
        for da in range(K + 1):
            for db in range(K + 1 - da):
                prod = weyl_product(a.component(da), b.component(db))
                assert prod == prod.component(da + db)


class TestFockEquivalence:
    def test_laplacian_correction(self):
        z = q(0) + p(0).scale(I)
        zb = q(0) - p(0).scale(I)
        x = z * zb
        out, sigma = fock_equivalence(x, "forward")
        assert out == x + lam().scale(sigma)

    def test_sign_is_minus_one(self):
        assert resolve_fock_sign() == {"sigma": -1, "basis_size": 4}

    def test_certificate_rejects_perturbed_tables(self, monkeypatch):
        half = gr(Fraction(1, 2))
        flipped_wick = tuple((u, v, -w) if (u, v) == ("q", "q") else (u, v, w)
                             for u, v, w in WICK_PAIRING)
        # these two would intertwine with sigma = -1 but for the complex weights
        complex_wick = WEYL_PAIRING + (("q", "q", HALF_I), ("p", "p", HALF_I))
        complex_laplacian = tuple((u, w * I) for u, w in LAPLACIAN)
        assert _equivalence_signs(WICK_PAIRING, WEYL_PAIRING, LAPLACIAN) == (-1,)
        for wick, laplacian in ((WICK_PAIRING, (("q", half), ("p", half))),
                                (flipped_wick, LAPLACIAN),
                                (WEYL_PAIRING, LAPLACIAN),
                                (complex_wick, complex_laplacian)):
            assert _equivalence_signs(wick, WEYL_PAIRING, laplacian) == ()
        # the operator reads the same table: with weight 1/2 the pair check
        # fails for both signs too, and the certificate raises
        monkeypatch.setattr(weyl, "LAPLACIAN", (("q", half), ("p", half)))
        z = q(0) + p(0).scale(I)
        zb = q(0) - p(0).scale(I)
        assert not any(check_sign_on_pair(s, z, zb) for s in (1, -1))
        with pytest.raises(ConsistencyError):
            resolve_fock_sign()

    def test_linear_elements_fixed(self):
        out, _ = fock_equivalence(q(0), "forward")
        assert out == q(0)

    def test_forward_inverse_compose_to_identity(self):
        x = q(0) * q(0) + p(0) * p(1) + lam() * q(1)
        fwd, sigma = fock_equivalence(x, "forward")
        back, _ = fock_equivalence(fwd, "inverse")
        assert back == x

    def test_intertwines_products(self):
        z = q(0) + p(0).scale(I)
        zb = q(0) - p(0).scale(I)
        sigma = resolve_fock_sign()["sigma"]
        lhs = exp_laplace_lifted(wick_product(z, zb), sigma)
        rhs = weyl_product(exp_laplace_lifted(z, sigma), exp_laplace_lifted(zb, sigma))
        assert WElement(N, K, lhs.terms) == WElement(N, K, rhs.terms)

    def test_commutes_with_conjugation(self):
        x = q(0) * p(1) + lam() * q(0).scale(gr(0, 1))
        fwd, _ = fock_equivalence(x.conjugate(), "forward")
        fwd2, _ = fock_equivalence(x, "forward")
        assert fwd == fwd2.conjugate()


class TestZeroMomentumKernel:
    """The closed form of iota*(exp(sign lam Lap) x) against the iterated
    series at the lifted order followed by the chart map."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
               lambda n: welements(n, K=6, max_terms=4, max_lam=3, max_each=3)),
           st.sampled_from((1, -1)), st.integers(min_value=0, max_value=6))
    def test_matches_the_iterated_series(self, x, sign, K):
        assert exp_laplace_exact(x, sign, K) == zero_momentum_reference(x, sign, K)

    def test_momentum_square(self):
        # exp(-lam Lap) maps p_1^2 to p_1^2 - lam/2 and q_1^2 to q_1^2 - lam/2
        x = p(0) * p(0) + q(0) * q(0)
        assert exp_laplace_exact(x, -1, 1) == LambdaPoly(N, 1, {
            (0,): monomial(N, (2, 0)), (1,): QPolynomial.constant(N, -1)})


class TestChartMaps:
    def test_iota_substitution(self):
        x = q(0) * q(0) + p(0) * p(0) - lam()
        f = iota_star(x)
        assert f == LambdaPoly(N, K, {
            (0,): monomial(N, (2, 0)),
            (1,): QPolynomial.constant(N, -1),
        })

    def test_section_property(self):
        f = series(coordinate(N, 0) * coordinate(N, 1), K)
        assert iota_star(pi_star(f)) == f

    def test_pi_star_multiplicative(self):
        f = series(coordinate(N, 0), K)
        g = series(coordinate(N, 1), K)
        assert weyl_product(pi_star(f), pi_star(g)) == pi_star(f * g)


class TestMatrix:
    def _m(self):
        z = q(0) + p(0).scale(I)
        zero = WElement.zero(N, K)
        return MatrixWElement([[z, q(1)], [zero, z.conjugate()]])

    def test_involution_is_conjugate_transpose(self):
        m = self._m()
        mi = m.involution()
        assert mi.entries[0][1] == WElement.zero(N, K)
        assert mi.entries[1][0] == q(1)
        assert mi.involution() == m

    def test_matrix_weyl_hermitian(self):
        m = self._m()
        w = weyl_product(m, m.involution())
        assert w.involution() == w

    def test_matrix_products_reduce_to_scalar(self):
        a, b = q(0), p(0)
        ma, mb = MatrixWElement([[a]]), MatrixWElement([[b]])
        assert weyl_product(ma, mb).entries[0][0] == weyl_product(a, b)
        assert wick_product(ma, mb).entries[0][0] == wick_product(a, b)

    def test_matrix_fock_equivalence(self):
        m = self._m()
        fwd, _ = fock_equivalence(m, "forward")
        lhs, _ = fock_equivalence(wick_product(m, m), "forward")
        # compare at the common truncation (inputs are low degree, exact)
        rhs = weyl_product(fwd, fwd)
        assert lhs.entries == rhs.entries

    def test_matrix_associativity(self):
        a = self._m()
        b = a.involution()
        c = MatrixWElement.identity(2, N, K) + a
        for prod in (weyl_product, wick_product):
            lhs = prod(prod(a, b), c)
            rhs = prod(a, prod(b, c))
            assert lhs.entries == rhs.entries


def test_canonical_bracket():
    u = q(0) - p(1).scale(Fraction(1, 2))
    v = q(1) + p(0).scale(Fraction(1, 2))
    assert canonical_bracket(u, v) == element(QPolynomial.constant(N, 1), K)
