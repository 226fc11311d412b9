from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqw.rationals import ZERO, GaussianRational, format_scalar, parse_scalar

from strategies import fractions, gaussian_rationals, gr


def test_exact_add_sub():
    a = gr(Fraction(1, 3), Fraction(-2, 7))
    b = gr(Fraction(5, 11), Fraction(1, 2))
    assert (a + b) - b == a


def test_mul_div():
    a = gr(3, 4)
    b = gr(-1, 2)
    assert (a * b) / b == a
    # (3+4i)(-1+2i) = -11+2i
    assert a * b == gr(-11, 2)


def test_conjugate_and_power():
    a = gr(Fraction(1, 2), Fraction(3, 5))
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert gr(0, 1) ** 2 == gr(-1)
    assert gr(0, 1) ** 3 == gr(0, -1)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


@given(gaussian_rationals(), gaussian_rationals())
def test_distributes(a, b):
    c = gr(Fraction(2, 3), Fraction(-1, 5))
    assert c * (a + b) == c * a + c * b


@pytest.mark.parametrize("value,text", [
    (gr(Fraction(3, 4)), "3/4"),
    (gr(-2), "-2"),
    (gr(0), "0"),
    (gr(0, Fraction(1, 2)), "1/2 i"),
    (gr(0, -1), "-1 i"),
    (gr(Fraction(3, 4), Fraction(1, 2)), "3/4+1/2 i"),
    (gr(Fraction(3, 4), Fraction(-1, 2)), "3/4-1/2 i"),
])
def test_string_forms(value, text):
    assert format_scalar(value) == text
    assert parse_scalar(text) == value


@given(gaussian_rationals())
def test_string_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("1 + 2j")


# ---- the integer triple against a reference pair of Fractions ----

def _pair(x):
    return (x.re, x.im)


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def _ref_inverse(x):
    a, b = x
    norm = a * a + b * b
    return (a / norm, -b / norm)


def _ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    base = _ref_inverse(x) if k < 0 else x
    for _ in range(abs(k)):
        out = _ref_mul(out, base)
    return out


def _ref_str(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im} i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)} i"


def _assert_reduced(x):
    a, b, d = x._t
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (Fraction(a, d), Fraction(b, d))


@given(gaussian_rationals(), gaussian_rationals())
def test_arithmetic_matches_fraction_pairs(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    cases = [(x + y, (a + c, b + d)), (x - y, (a - c, b - d)),
             (x * y, _ref_mul((a, b), (c, d))), (-x, (-a, -b)),
             (x.conjugate(), (a, -b)), (x + 2, (a + 2, b)), (2 - x, (2 - a, -b)),
             (x * Fraction(3, 4), (a * Fraction(3, 4), b * Fraction(3, 4)))]
    if y:
        cases += [(x / y, _ref_mul((a, b), _ref_inverse((c, d)))),
                  (y.inverse(), _ref_inverse((c, d))), (1 / y, _ref_inverse((c, d)))]
    for got, want in cases:
        _assert_reduced(got)
        assert _pair(got) == want
        assert str(got) == _ref_str(want)


@given(gaussian_rationals(), st.integers(min_value=-4, max_value=4))
def test_power_matches_fraction_pairs(x, k):
    if k < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    got = x ** k
    _assert_reduced(got)
    assert _pair(got) == _ref_pow(_pair(x), k)


@given(gaussian_rationals())
def test_constructed_values_are_reduced(x):
    _assert_reduced(x)
    assert str(x) == _ref_str(_pair(x))
    assert GaussianRational(str(x.re), str(x.im)) == x
    assert bool(x) == bool(x.re or x.im) and x.is_real() == (x.im == 0)


@pytest.mark.parametrize("name", ["re", "im", "_t", "other"])
def test_immutable(name):
    x = gr(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        setattr(x, name, Fraction(1))
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == gr(Fraction(1, 2), 3)


def test_equal_numbers_hash_alike():
    half = Fraction(1, 2)
    groups = [
        [gr(Fraction(2, 4)), gr(half), gr("1/2"), gr(1) / gr(2),
         gr(3, 1) - gr(Fraction(5, 2), 1), GaussianRational(Fraction(3, 6), 0), half],
        [gr(3), gr(Fraction(6, 2)), gr(1) + gr(2), gr(Fraction(3, 2)) * 2, 3, Fraction(3)],
        [gr(0, 1) * gr(0, 1), gr(-1), -1],
        [gr(), gr(1) - 1, ZERO, 0],
    ]
    for group in groups:
        assert all(x == group[0] for x in group)
        assert len({hash(x) for x in group}) == 1
        assert len(set(group)) == 1
    assert len({gr(3), 3}) == 1
    assert gr(0, 1) != 1 and gr(Fraction(3, 2)) != 3
    assert gr(Fraction(1, 3)) != Fraction(1, 2) and gr(Fraction(1, 2), 1) != Fraction(1, 2)


@given(fractions(), st.integers(min_value=1, max_value=5))
def test_real_hash_matches_fraction(q, k):
    built = gr(q.numerator * k) / gr(q.denominator * k)
    assert built == q and hash(built) == hash(q) == hash(gr(q))


@given(gaussian_rationals(), st.data())
def test_int_product_matches_the_scalar_product(x, data):
    d = x._t[2]
    k = data.draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60),
                            st.integers(-5, 5).map(lambda m: m * d)))
    got = x * k
    _assert_reduced(got)
    assert got == x * GaussianRational(k) and k * x == got


_PARTS = st.one_of(st.just(Fraction(0)), st.integers(-10**6, 10**6).map(Fraction),
                   st.fractions(max_denominator=10**6))


@given(_PARTS, _PARTS)
def test_format_matches_fraction_strings(re, im):
    if not im:
        want = str(re)
    elif not re:
        want = f"{im} i"
    else:
        want = f"{re}{'+' if im > 0 else '-'}{abs(im)} i"
    assert format_scalar(GaussianRational(re, im)) == want
