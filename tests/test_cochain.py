from fractions import Fraction

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqw.cochain import (MultiDiffCochain, _cochain_dq, _cochain_join, _splittings, alt,
                         coboundary, cochain_weyl_product, compose_slot, find_witness,
                         identity_cochain, mu_cochain, plug_constant)
from dqw.qpoly import QPolynomial
from dqw.rationals import I
from dqw.starspec import star_apply
from dqw.terms import accumulate, shift, zeros
from dqw.welement import LambdaPoly, WElement
from dqw.weyl import WICK_PAIRING, propagate

from oracles import (coboundary_reference, cochain_weyl_product_reference,
                     compose_slot_reference, evaluate_per_order, propagate_reference,
                     star_apply_by_lam_pairs, tau_apply_per_order, weyl_product)
from strategies import cochains, exponents, gaussian_rationals, gr, lambda_polys

N, K = 2, 4
ZERO_IDX = (0, 0)
ONE = QPolynomial.constant(N, 1)


def simple(terms, arity=1):
    return MultiDiffCochain(N, K, arity, terms)


class TestCoboundary:
    def test_second_derivative_both_modes(self):
        psi = simple({(0, ZERO_IDX, ((2, 0),)): ONE})
        expect = simple({(0, ZERO_IDX, ((1, 0), (1, 0))): ONE.scale(-2)}, arity=2)
        assert coboundary(psi, deformed=True) == expect
        assert coboundary(psi, deformed=False) == expect

    def test_momentum_weighted_term(self):
        psi = simple({(0, (0, 1), ((1, 0),)): ONE})
        ih = gr(0, Fraction(1, 2))
        expect = simple({(1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(ih),
                         (1, ZERO_IDX, ((1, 0), (0, 1))): ONE.scale(-ih)}, arity=2)
        assert coboundary(psi, deformed=True) == expect
        assert coboundary(psi, deformed=False).is_zero()

    @settings(max_examples=25)
    @given(cochains(arity=1))
    def test_delta_squared_zero_arity1(self, phi):
        assert coboundary(coboundary(phi, True), True).is_zero()
        assert coboundary(coboundary(phi, False), False).is_zero()

    @settings(max_examples=15)
    @given(cochains(arity=2))
    def test_delta_squared_zero_arity2(self, phi):
        assert coboundary(coboundary(phi, True), True).is_zero()
        assert coboundary(coboundary(phi, False), False).is_zero()

    @settings(max_examples=25)
    @given(cochains(arity=1))
    def test_classical_limit_intertwines(self, phi):
        assert coboundary(phi, True).classical_limit() == \
            coboundary(phi.classical_limit(), False)

    @settings(max_examples=15)
    @given(cochains(arity=2))
    def test_classical_limit_intertwines_arity2(self, phi):
        assert coboundary(phi, True).classical_limit() == \
            coboundary(phi.classical_limit(), False)


def _diff(f, k):
    """d/dq^k of a base lam-series, one coordinate at a time."""
    return LambdaPoly(f.n, f.K, {(r, shift(e, k, -1)): c * e[k]
                                 for (r, e), c in f.terms.items() if e[k]})


def _evaluate_by_repeated_diff(phi, args):
    """The evaluation that builds each D^j by |j| one-coordinate diffs,
    with the arguments read at the cochain's order."""
    out = {}
    for (a, idx, jvec, exp), c in phi.terms.items():
        val = LambdaPoly(phi.n, phi.K, {(0, exp): c})
        for f, j in zip(args, jvec):
            d = LambdaPoly(f.n, phi.K, f.terms)
            for k, e in enumerate(j):
                for _ in range(e):
                    d = _diff(d, k)
            val = val * d
        for (r, e), v in val.terms.items():
            accumulate(out, (a + r, idx, e), v)
    return WElement(phi.n, phi.K, out)


def _seeded_poly(rng, terms=3, max_exp=3):
    return QPolynomial(N, {
        tuple(rng.randint(0, max_exp) for _ in range(N)):
            gr(rng.randint(-4, 4), rng.randint(-2, 2))
        for _ in range(terms)})


def _seeded_series(rng, terms=3, max_exp=3):
    """A seeded lam-series of order 2, 4 or 6 (the cochains' order is 4)."""
    return LambdaPoly(N, rng.choice((2, 4, 6)), {
        (rng.randint(0, 2), tuple(rng.randint(0, max_exp) for _ in range(N))):
            gr(rng.randint(-4, 4), rng.randint(-2, 2))
        for _ in range(terms)})


def _seeded_cochain(rng, arity, terms=5):
    out = {}
    for _ in range(terms):
        a = rng.randint(0, 2)
        idx = tuple(rng.randint(0, 1) for _ in range(N))
        jvec = tuple(tuple(rng.randint(0, 3) for _ in range(N)) for _ in range(arity))
        out[(a, idx, jvec)] = _seeded_poly(rng, terms=2, max_exp=2)
    return MultiDiffCochain(N, K, arity, out)


def test_evaluate_takes_each_derivative_in_one_pass(monkeypatch):
    rng = random.Random(7)
    cases = []
    for arity in range(4):
        for _ in range(8):
            phi = _seeded_cochain(rng, arity)
            args = [_seeded_series(rng) for _ in range(arity)]
            cases.append((phi, args, _evaluate_by_repeated_diff(phi, args)))

    taken = []
    derivative = LambdaPoly.derivative

    def counted(self, j):
        taken.append(j)
        return derivative(self, j)

    monkeypatch.setattr(LambdaPoly, "derivative", counted)
    for phi, args, expected in cases:
        taken.clear()
        assert phi.evaluate(args) == expected
        # one D^j per slot and derivative index, never a chain of them
        assert len(taken) <= len({(s, j) for key in phi.terms for s, j in enumerate(key[2])})


class TestAlt:
    def test_definition(self):
        phi = simple({(0, ZERO_IDX, ((1, 0), (0, 1))): ONE}, arity=2)
        half = Fraction(1, 2)
        expect = simple({(0, ZERO_IDX, ((1, 0), (0, 1))): ONE.scale(half),
                         (0, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-half)}, arity=2)
        assert alt(phi) == expect

    def test_symmetric_input_killed(self):
        phi = simple({(0, ZERO_IDX, ((1, 0), (1, 0))): ONE}, arity=2)
        assert alt(phi).is_zero()

    @given(cochains(arity=2))
    def test_idempotent(self, phi):
        assert alt(alt(phi)) == alt(phi)

    @pytest.mark.parametrize("arity", [1, 3])
    def test_rejects_other_arities(self, arity):
        phi = simple({(0, ZERO_IDX, ((1, 0),) * arity): ONE}, arity=arity)
        with pytest.raises(ValueError):
            alt(phi)


class TestClassicalLimit:
    def test_drops_lambda_terms(self):
        phi = simple({(1, ZERO_IDX, ((1, 0),)): ONE,
                      (0, (1, 0), ((0, 1),)): ONE})
        assert phi.classical_limit() == simple({(0, (1, 0), ((0, 1),)): ONE})

    def test_identity_cochain_fixed(self):
        assert identity_cochain(N, K).classical_limit() == identity_cochain(N, K)


class TestInvolution:
    def test_conjugates_coefficients(self):
        psi = simple({(1, ZERO_IDX, ((1, 0),)): ONE.scale(I)})
        assert psi.involution() == simple({(1, ZERO_IDX, ((1, 0),)): ONE.scale(-I)})

    def test_real_momentum_term_fixed(self):
        psi = simple({(0, (1, 0), ((1, 0),)): ONE})
        assert psi.involution() == psi

    def test_reverses_argument_order(self):
        phi = simple({(0, ZERO_IDX, ((1, 0), (0, 1))): ONE}, arity=2)
        assert phi.involution() == simple(
            {(0, ZERO_IDX, ((0, 1), (1, 0))): ONE}, arity=2)

    @settings(max_examples=25)
    @given(cochains(arity=1))
    def test_squares_to_identity(self, phi):
        assert phi.involution().involution() == phi

    @settings(max_examples=25)
    @given(cochains(arity=1))
    def test_coboundary_sign_arity1(self, phi):
        # arity r = 1: (d phi)~ = (+1) d(phi~)
        assert coboundary(phi, True).involution() == coboundary(phi.involution(), True)

    @settings(max_examples=15)
    @given(cochains(arity=2))
    def test_coboundary_sign_arity2(self, phi):
        # arity r = 2: (d phi)~ = (-1) d(phi~)
        assert coboundary(phi, True).involution() == -coboundary(phi.involution(), True)


class TestProductsAndComposition:
    @settings(max_examples=20)
    @given(cochains(arity=1), cochains(arity=1), lambda_polys(), lambda_polys())
    def test_star_product_matches_values(self, phi, psi, f, g):
        prod = cochain_weyl_product(phi, psi)
        lhs = prod.evaluate([f, g])
        rhs = weyl_product(phi.evaluate([f]), psi.evaluate([g]))
        assert lhs == rhs

    def test_compose_with_pointwise_product(self):
        tau = identity_cochain(N, K)
        assert compose_slot(tau, 0, mu_cochain(N, K)) == mu_cochain(N, K)

    @settings(max_examples=20)
    @given(cochains(arity=1), lambda_polys(), lambda_polys())
    def test_compose_matches_values(self, phi, f, g):
        comp = compose_slot(phi, 0, mu_cochain(N, K))
        assert comp.evaluate([f, g]) == phi.evaluate([f * g])

    def test_plug_constant(self):
        assert plug_constant(mu_cochain(N, K), 0) == identity_cochain(N, K)
        assert plug_constant(mu_cochain(N, K), 1) == identity_cochain(N, K)


def _ordered_splits(j, parts):
    """Every ordered tuple of `parts` multi-indices summing to j."""
    if parts == 1:
        yield (j,)
        return
    for first in itertools.product(*[range(x + 1) for x in j]):
        rest = tuple(x - y for x, y in zip(j, first))
        for tail in _ordered_splits(rest, parts - 1):
            yield (first,) + tail


def _reference_compose_slot(phi, slot, inner):
    """The kernel compose_slot used to be: split the slot's derivative
    over the inner coefficient and all m inner arguments at once, then drop
    every split whose first piece differentiates q^fexp too often."""
    m = inner.arity
    out = {}
    for (a, idx, jvec, exp), c in phi.terms.items():
        j = jvec[slot]
        for (_, _, avec, fexp), ic in inner.terms.items():
            for pieces in _ordered_splits(j, m + 1):
                j0 = pieces[0]
                if any(x > f for x, f in zip(j0, fexp)):
                    continue
                mult = 1
                for d in range(phi.n):
                    mult *= math.factorial(j[d])
                    for piece in pieces:
                        mult //= math.factorial(piece[d])
                    mult *= math.perm(fexp[d], j0[d])
                new_exp = tuple(e + f - x for e, f, x in zip(exp, fexp, j0))
                new_slots = tuple(tuple(x + y for x, y in zip(avec[s], pieces[s + 1]))
                                  for s in range(m))
                key = (a, idx, jvec[:slot] + new_slots + jvec[slot + 1:], new_exp)
                out[key] = out[key] + c * ic * mult if key in out else c * ic * mult
    out = {k: v for k, v in out.items() if v}
    return MultiDiffCochain(phi.n, phi.K, phi.arity + m - 1, out)


@st.composite
def _composition_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    outer = draw(cochains(n=n, arity=draw(st.integers(min_value=1, max_value=2))))
    m = draw(st.integers(min_value=0, max_value=3))  # 0 plugs in a value
    # inner coefficients of degree >= 1, so derivatives also land on them
    coeff_exp = exponents(n, 2).filter(any)
    entries = draw(st.lists(
        st.tuples(st.tuples(*[exponents(n, 1)] * m), coeff_exp, gaussian_rationals()),
        min_size=1, max_size=3))
    terms = {}
    for jvec, fexp, c in entries:
        key = (0, (0,) * n, jvec)
        poly = QPolynomial(n, {fexp: c})
        terms[key] = terms[key] + poly if key in terms else poly
    inner = MultiDiffCochain(n, outer.K, m, terms)
    slot = draw(st.integers(min_value=0, max_value=outer.arity - 1))
    return outer, slot, inner


class TestComposeSlotOracle:
    @settings(max_examples=60, deadline=None)
    @given(_composition_inputs())
    def test_matches_enumerate_then_filter(self, case):
        outer, slot, inner = case
        assert compose_slot(outer, slot, inner) == \
            _reference_compose_slot(outer, slot, inner)


def _hermitian_classical(phi):
    """The Hermitian part of phi with its lam-powers and p-exponents set
    to zero."""
    terms = {}
    for (_a, _idx, jvec, exp), c in phi.terms.items():
        accumulate(terms, (0, zeros(phi.n), jvec, exp), c)
    return MultiDiffCochain(phi.n, phi.K, phi.arity, terms).hermitian_part()


class TestHermitianComposition:
    @settings(max_examples=40, deadline=None)
    @given(cochains(arity=2, max_terms=4), cochains(arity=2, max_terms=4))
    def test_slot_one_is_the_involution_of_slot_zero(self, outer, inner):
        # C_i(f, C_j(g, h)) = conj C_i(C_j(h~, g~), f~) for Hermitian C_i, C_j
        outer, inner = _hermitian_classical(outer), _hermitian_classical(inner)
        assume(outer and inner)
        assert compose_slot(outer, 1, inner) == compose_slot(outer, 0, inner).involution()


@st.composite
def _splitting_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    j = draw(st.tuples(*[st.integers(min_value=0, max_value=5)] * n)
             .filter(lambda j: sum(j) <= 5))
    return j, draw(st.integers(min_value=0, max_value=3))


class TestSplittingMemo:
    @settings(max_examples=150, deadline=None)
    @given(_splitting_inputs())
    def test_matches_brute_force(self, case):
        j, m = case
        got = _splittings(j, m)
        if m == 0:
            expect = {(): 1} if not any(j) else {}
        else:
            expect = {
                pieces: math.prod(math.factorial(e) for e in j) // math.prod(
                    math.factorial(e) for piece in pieces for e in piece)
                for pieces in _ordered_splits(j, m)}
        assert len(got) == len(expect)
        assert dict(got) == expect
        for pieces, _mult in got:
            assert len(pieces) == m
            assert tuple(map(sum, zip(*pieces))) == (j if m else ())

    def test_hands_out_only_tuples(self):
        first = _splittings((2, 1), 2)
        assert _splittings((2, 1), 2) is first
        assert type(first) is tuple
        for entry in first:
            pieces, mult = entry
            assert type(entry) is tuple and type(pieces) is tuple
            assert all(type(p) is tuple for p in pieces) and type(mult) is int
        with pytest.raises(TypeError):
            first[0][0][0] = (0, 0)
        snapshot = list(first)
        # a composition reads the memo and leaves it as it was
        phi = simple({(0, ZERO_IDX, ((2, 1),)): ONE})
        compose_slot(phi, 0, mu_cochain(N, K))
        assert list(_splittings((2, 1), 2)) == snapshot


class TestLamLinearExtension:
    """The one-pass kernels on lam-series arguments against the per-order
    references: the lam-powers of the arguments add, and values are
    truncated at the order of the cochain, the product or the map, which
    the arguments' order may exceed or fall short of."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_evaluate_matches_per_order(self, data):
        arity = data.draw(st.integers(min_value=0, max_value=3))
        phi = data.draw(cochains(arity=arity, max_deriv=1 if arity == 3 else 2))
        args = [data.draw(lambda_polys(K=data.draw(st.sampled_from((2, 4, 6)))))
                for _ in range(arity)]
        assert phi.evaluate(args) == evaluate_per_order(phi, args)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_star_apply_matches_lam_pairs(self, moyal_r2, linear_2d, data):
        spec = data.draw(st.sampled_from((moyal_r2, linear_2d)))
        K = data.draw(st.sampled_from((2, 3, 5)))
        f, g = data.draw(lambda_polys(K=K)), data.draw(lambda_polys(K=K))
        assert star_apply(spec, f, g) == star_apply_by_lam_pairs(spec, f, g)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_tau_apply_matches_per_order(self, tau_linear, fixture_tau_r2, data):
        tau = data.draw(st.sampled_from((tau_linear, fixture_tau_r2)))
        f = data.draw(lambda_polys(K=data.draw(st.sampled_from((2, 4, 8)))))
        assert tau.apply(f) == tau_apply_per_order(tau, f)


class TestWitness:
    def test_zero_has_no_witness(self):
        assert find_witness(MultiDiffCochain(N, K, 2)) is None

    @settings(max_examples=30)
    @given(cochains(arity=2))
    def test_nonzero_always_witnessed(self, phi):
        got = find_witness(phi)
        if phi.is_zero():
            assert got is None
        else:
            args, val = got
            assert not val.is_zero()
            assert phi.evaluate(args) == val


def test_biderivation_is_cocycle(linear_2d):
    # the bracket {x, y} = x
    bid = linear_2d.bracket()
    assert coboundary(bid, True).is_zero()
    assert coboundary(bid, False).is_zero()


def test_deg_homogeneous_components():
    phi = simple({(1, ZERO_IDX, ((1, 0),)): ONE, (0, (0, 2), ((0, 1),)): ONE})
    assert phi.degrees() == {1, 2}
    assert phi.component(1) == simple({(1, ZERO_IDX, ((1, 0),)): ONE})
    assert not phi.is_homogeneous(1)
    assert phi.component(2).is_homogeneous(2)



@st.composite
def _kernel_cochain(draw, n, K, arity, lam_free=False):
    """A cochain over n coordinates at order K whose terms may carry
    lam-powers, momenta (unless lam_free) and q-coefficients."""
    multi = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    with_q = draw(st.booleans())
    terms: dict = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a, idx = (0, zeros(n)) if lam_free else (draw(st.integers(0, 2)), draw(multi))
        jvec = tuple(draw(multi) for _ in range(arity))
        exp = draw(multi) if with_q else zeros(n)
        accumulate(terms, (a, idx, jvec, exp), draw(gaussian_rationals()))
    return MultiDiffCochain(n, K, arity, terms)


@st.composite
def _kernel_inputs(draw, lam_free_second=False):
    n = draw(st.integers(min_value=1, max_value=3))
    K = draw(st.integers(min_value=0, max_value=4))
    first = draw(_kernel_cochain(n, K, draw(st.integers(min_value=1, max_value=2))))
    second = draw(_kernel_cochain(n, K, draw(st.integers(min_value=1, max_value=2)),
                                  lam_free=lam_free_second))
    return first, second


class TestKernelsMatchReferences:
    """The kernels with per-call tables against their plain forms in
    `tests/oracles.py`, on the same random cochains."""

    @settings(max_examples=80, deadline=None)
    @given(_kernel_inputs())
    def test_weyl_product(self, case):
        phi, psi = case
        assert cochain_weyl_product(phi, psi) == cochain_weyl_product_reference(phi, psi)

    @settings(max_examples=40, deadline=None)
    @given(_kernel_inputs())
    def test_propagate_with_two_momentum_derivatives(self, case):
        # the z/zbar table pairs d/dp with d/dp, so no pair is dropped on entry
        phi, psi = case
        args = (phi.terms.items(), psi.terms.items(), WICK_PAIRING,
                _cochain_dq, _cochain_join, phi.K)
        assert propagate(*args) == propagate_reference(*args)

    @settings(max_examples=80, deadline=None)
    @given(_kernel_inputs(lam_free_second=True), st.data())
    def test_compose_slot(self, case, data):
        phi, inner = case
        slot = data.draw(st.integers(min_value=0, max_value=phi.arity - 1))
        assert compose_slot(phi, slot, inner) == compose_slot_reference(phi, slot, inner)

    @settings(max_examples=80, deadline=None)
    @given(_kernel_inputs(), st.booleans())
    def test_coboundary(self, case, deformed):
        phi, _ = case
        assert coboundary(phi, deformed) == coboundary_reference(phi, deformed)
