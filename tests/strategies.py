"""Hypothesis strategies for the exact-arithmetic types (kept small so
the symbolic property tests stay fast), and the shorthand builders the
tests write their literals with."""

from fractions import Fraction

import hypothesis.strategies as st

from dqw.qpoly import QPolynomial
from dqw.rationals import GaussianRational
from dqw.terms import unit, zeros
from dqw.welement import LambdaPoly, WElement
from dqw.cochain import MultiDiffCochain

# a scalar from ints, Fractions or 'a/b' strings: gr(re, im)
gr = GaussianRational


def coordinate(n: int, k: int) -> QPolynomial:
    """The polynomial q^(k+1) (0-based k)."""
    return QPolynomial(n, {unit(n, k): 1})


def monomial(n: int, exp, c=1) -> QPolynomial:
    return QPolynomial(n, {tuple(exp): c})


def series(poly: QPolynomial, K: int) -> LambdaPoly:
    """The lam-free base series of a polynomial."""
    return LambdaPoly(poly.n, K, {(0, e): c for e, c in poly.terms.items()})


def element(poly: QPolynomial, K: int) -> WElement:
    """The lam- and momentum-free element of a polynomial."""
    z = zeros(poly.n)
    return WElement(poly.n, K, {(0, z, e): c for e, c in poly.terms.items()})


def momentum(n: int, K: int, k: int) -> WElement:
    """The element p_(k+1) (0-based k)."""
    return WElement(n, K, {(0, unit(n, k), zeros(n)): 1})


def lam_power(n: int, K: int, power: int = 1) -> WElement:
    """The element lam^power."""
    return WElement(n, K, {(power, zeros(n), zeros(n)): 1})


def fractions(max_num=6, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def gaussian_rationals():
    return st.builds(GaussianRational, fractions(), fractions())


def exponents(n, max_each=2):
    return st.tuples(*[st.integers(min_value=0, max_value=max_each)] * n)


def qpolynomials(n=2, max_terms=3):
    return st.dictionaries(
        exponents(n), gaussian_rationals(), min_size=0, max_size=max_terms
    ).map(lambda terms: QPolynomial(n, terms))


def welements(n=2, K=4, max_terms=3, max_lam=2, max_each=2):
    def build(entries):
        terms = {}
        for (a, idx, exp, c) in entries:
            if a + sum(idx) > K:
                continue
            key = (a, idx, exp)
            terms[key] = terms[key] + c if key in terms else c
        return WElement(n, K, terms)

    entry = st.tuples(
        st.integers(min_value=0, max_value=max_lam),
        exponents(n, max_each),
        exponents(n, max_each),
        gaussian_rationals(),
    )
    return st.lists(entry, min_size=0, max_size=max_terms).map(build)


def lambda_polys(n=2, K=4, max_terms=3):
    def build(entries):
        terms = {}
        for (r, exp, c) in entries:
            key = (r, exp)
            terms[key] = terms[key] + c if key in terms else c
        return LambdaPoly(n, K, terms)

    entry = st.tuples(
        st.integers(min_value=0, max_value=K),
        exponents(n, 2),
        gaussian_rationals(),
    )
    return st.lists(entry, min_size=0, max_size=max_terms).map(build)


def real_series(K=4):
    """The coefficients of a real lam-series through lam^K."""
    return st.lists(fractions(), min_size=K + 1, max_size=K + 1).map(tuple)


def cochains(n=2, K=4, arity=1, max_terms=3, max_deriv=2):
    def build(entries):
        terms = {}
        for (a, idx, jvec, exp, c) in entries:
            if a + sum(idx) > K:
                continue
            key = (a, idx, jvec, exp)
            terms[key] = terms[key] + c if key in terms else c
        return MultiDiffCochain(n, K, arity, terms)

    entry = st.tuples(
        st.integers(min_value=0, max_value=2),
        exponents(n, 1),
        st.tuples(*[exponents(n, max_deriv)] * arity),
        exponents(n, 1),
        gaussian_rationals(),
    )
    return st.lists(entry, min_size=0, max_size=max_terms).map(build)
