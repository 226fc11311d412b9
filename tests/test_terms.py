"""The linear operations of TermMap build their results without the
validating constructor; these tests pin that the results are exactly
what that constructor would have produced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqw.cochain import MultiDiffCochain
from dqw.qpoly import QPolynomial, expand_terms, group_terms
from dqw.terms import (DimensionMismatch, add, below, binom, factorial, falling,
                       shift, sub, unit, zeros)
from dqw.welement import LambdaPoly, WElement

from oracles import KoszulForm
from strategies import (cochains, exponents, gaussian_rationals, lambda_polys,
                        qpolynomials, welements)


def koszul_forms(n=3, degree=1, max_terms=3):
    def build(entries):
        terms = {}
        for idx, sel, exp, c in entries:
            key = (idx, tuple(sorted(sel)), exp)
            terms[key] = terms[key] + c if key in terms else c
        return KoszulForm(n, degree, terms)

    entry = st.tuples(
        exponents(n, 2),
        st.sets(st.integers(min_value=0, max_value=n - 1),
                min_size=degree, max_size=degree),
        exponents(n, 2),
        gaussian_rationals(),
    )
    return st.lists(entry, min_size=0, max_size=max_terms).map(build)


KINDS = {
    "QPolynomial": qpolynomials(),
    "WElement": welements(),
    "LambdaPoly": lambda_polys(),
    "MultiDiffCochain": cochains(arity=2),
    "KoszulForm": koszul_forms(),
}


def _assert_canonical(x):
    rebuilt = type(x)(*x._shape(), x.terms)
    assert rebuilt == x
    assert rebuilt.terms == x.terms
    assert hash(rebuilt) == hash(x)
    assert all(x.terms.values())
    with pytest.raises(AttributeError):
        x.terms = {}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_results_match_validating_constructor(kind, data):
    x = data.draw(KINDS[kind])
    y = data.draw(KINDS[kind])
    c = data.draw(gaussian_rationals())
    results = [x + y, x - y, -x, x.scale(c), x.scale(0), x.conjugate(), x - x]
    for r in results:
        assert type(r) is type(x) and r._shape() == x._shape()
        _assert_canonical(r)
    assert (x - x).is_zero() and x.scale(0).is_zero()


@pytest.mark.parametrize("kind", ["KoszulForm", "MultiDiffCochain", "WElement"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_grouped_and_flat_forms_agree(kind, data):
    """A graded container stores flat terms; its grouped form, one
    QPolynomial per key without the q-exponent, builds the same map, and
    group_terms and expand_terms undo each other."""
    x = data.draw(KINDS[kind])
    grouped = group_terms(x.terms, x.n)
    assert list(grouped) == sorted(grouped)
    assert all(type(p) is QPolynomial and p for p in grouped.values())
    assert type(x)(*x._shape(), grouped) == x
    assert dict(expand_terms(grouped)) == x.terms
    assert group_terms(dict(expand_terms(grouped)), x.n) == grouped


def test_shape_mismatch_still_raises():
    pairs = [
        (QPolynomial.constant(2, 1), QPolynomial.constant(3, 1)),
        (WElement(2, 3), WElement(2, 4)),
        (LambdaPoly(2, 3), LambdaPoly(3, 3)),
        (MultiDiffCochain(2, 3, 1), MultiDiffCochain(2, 3, 2)),
        (KoszulForm.zero(3, 1), KoszulForm.zero(3, 2)),
    ]
    for a, b in pairs:
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a - b


def test_index_vocabulary_edges():
    a = (2, 0, 1)
    assert zeros(3) == (0, 0, 0)
    assert unit(3, 0) == (1, 0, 0) and unit(3, 2) == (0, 0, 1)
    assert add(a, unit(3, 1)) == (2, 1, 1) and sub(a, a) == zeros(3)
    assert shift(a, 0, 1) == (3, 0, 1) and shift(a, 2, -1) == (2, 0, 0)
    assert shift(a, 0, -2) == (0, 0, 1) and shift(a, 1, 0) == a
    assert list(below(zeros(2))) == [(0, 0)]
    assert list(below((1, 2))) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert binom((3, 2), zeros(2)) == 1 and binom((3, 2), (3, 2)) == 1
    assert binom((3, 2), (1, 1)) == 6 and binom((3, 2), (4, 0)) == 0
    assert factorial(zeros(2)) == 1 and factorial((3, 2)) == 12
    assert falling((3, 2), zeros(2)) == 1
    assert falling((3, 2), (2, 1)) == 12 and falling((3, 2), (3, 2)) == 12
    assert falling((3, 2), (4, 0)) == 0 and falling((3, 2), (0, 3)) == 0


@pytest.mark.parametrize("e", [(0,), (4,), (3, 0), (2, 1, 3)])
def test_falling_is_a_factorial_quotient(e):
    for j in below(e):
        assert falling(e, j) == factorial(e) // factorial(sub(e, j))
        assert binom(e, j) * factorial(j) == falling(e, j)
