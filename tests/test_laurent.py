from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifoldrh.laurent import LaurentPoly


def lp(d):
    return LaurentPoly(d)


coeffs = st.dictionaries(st.integers(-6, 6),
                         st.fractions(min_value=-5, max_value=5),
                         max_size=5)


@given(coeffs, coeffs)
def test_add_commutes(a, b):
    assert lp(a) + lp(b) == lp(b) + lp(a)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=60)
def test_mul_associative_and_distributive(a, b, c):
    A, B, C = lp(a), lp(b), lp(c)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C


@given(coeffs)
def test_negate_var_is_involution(a):
    A = lp(a)
    assert A.negate_var().negate_var() == A


def test_no_zero_coefficients_stored():
    p = lp({0: 1, 2: Fraction(0)})
    assert p.support() == [0]
    assert (p - p).is_zero()


def test_monomial_shift_truncate():
    p = LaurentPoly.monomial(3, Fraction(2, 3))
    assert p.shift(-3) == LaurentPoly.from_scalar(Fraction(2, 3))
    q = lp({0: 1, 5: 1, 9: 1})
    assert q.truncate(5) == lp({0: 1, 5: 1})


def test_inverse_monomial():
    p = LaurentPoly.monomial(4, Fraction(3))
    assert p * p.inverse_monomial() == LaurentPoly.one()
    with pytest.raises(ValueError):
        lp({0: 1, 1: 1}).inverse_monomial()


def test_evaluate():
    p = lp({-1: 1, 2: 3})   # q^(-1/2) + 3 q
    v = p.evaluate(0.5j)
    assert abs(v - (1 / 0.5j + 3 * (0.5j) ** 2)) < 1e-14


# ---------------------------------------------------------------------------
# integer coefficients


def test_integral_fraction_stored_as_int():
    p = lp({0: Fraction(6, 3), 1: Fraction(-4, 1), 2: True})
    assert [type(a) for _, a in p.items()] == [int, int, int]
    assert p == lp({0: 2, 1: -4, 2: 1})
    assert type(p.coeff(0)) is int and p.coeff(0) == 2
    assert type(p.coeff(7)) is int and p.coeff(7) == 0


def test_non_integral_fraction_round_trips():
    p = lp({0: Fraction(1, 3), 1: 2})
    assert p.coeff(0) == Fraction(1, 3) and type(p.coeff(0)) is Fraction
    assert (p * 3).coeff(0) == 1
    third = lp({0: Fraction(1, 3)})
    assert third + third + third == LaurentPoly.one()
    assert (p * lp({0: 3}) - lp({0: 1, 1: 6})).is_zero()
    assert hash(lp({0: Fraction(5)})) == hash(lp({0: 5}))


def test_inverse_monomial_keeps_units_integral():
    for a in (1, -1):
        inv = LaurentPoly.monomial(3, a).inverse_monomial()
        assert inv == LaurentPoly.monomial(-3, a)
        assert type(inv.coeff(-3)) is int
    assert LaurentPoly.monomial(2, 4).inverse_monomial().coeff(-2) == Fraction(1, 4)
    assert LaurentPoly.monomial(2, Fraction(2, 3)).inverse_monomial().coeff(-2) == \
        Fraction(3, 2)


def test_to_json_strings():
    p = lp({-1: -3, 0: Fraction(4, 2), 3: Fraction(1, 2)})
    assert p.to_json() == [[-1, "-3"], [0, "2"], [3, "1/2"]]
