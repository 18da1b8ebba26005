from fractions import Fraction

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


def test_no_zero_coefficients_stored():
    p = lp({0: 1, 2: Fraction(0)})
    assert dict(p.items()) == {0: 1}
    assert (p + (-p)).is_zero()


def test_monomial_shift_truncate():
    p = LaurentPoly.monomial(3, Fraction(2, 3))
    assert p.shift(-3) == LaurentPoly.from_scalar(Fraction(2, 3))
    q = lp({0: 1, 5: 1, 9: 1})
    assert q.truncate(5) == lp({0: 1, 5: 1})


# ---------------------------------------------------------------------------
# integer coefficients


def test_integral_fraction_stored_as_int():
    p = lp({0: Fraction(6, 3), 1: Fraction(-4, 1), 2: True})
    assert [type(a) for _, a in p.items()] == [int, int, int]
    assert p == lp({0: 2, 1: -4, 2: 1})


def test_non_integral_fraction_round_trips():
    p = lp({0: Fraction(1, 3), 1: 2})
    assert dict(p.items()) == {0: Fraction(1, 3), 1: 2}
    assert [type(a) for _, a in p.items()] == [Fraction, int]
    assert dict((p * 3).items()) == {0: 1, 1: 6}
    third = lp({0: Fraction(1, 3)})
    assert third + third + third == LaurentPoly.one()
    assert p * lp({0: 3}) == lp({0: 1, 1: 6})


def test_to_json_strings():
    p = lp({-1: -3, 0: Fraction(4, 2), 3: Fraction(1, 2)})
    assert p.to_json() == [[-1, "-3"], [0, "2"], [3, "1/2"]]


# ---------------------------------------------------------------------------
# products: the big-integer path against the schoolbook product


def schoolbook(a, b):
    """The product term by term, with zero coefficients dropped."""
    c = {}
    for n1, a1 in a.items():
        for n2, a2 in b.items():
            c[n1 + n2] = c.get(n1 + n2, 0) + a1 * a2
    return {n: x for n, x in c.items() if x}


@st.composite
def sparse_polys(draw, values):
    """Exponents offset + stride * k, odd or even, with gaps; up to 40 terms."""
    offset = draw(st.integers(-9, 9))
    stride = draw(st.sampled_from((1, 2, 3)))
    ks = draw(st.sets(st.integers(0, 60), max_size=40))
    return {offset + stride * k: draw(values) for k in ks}


big_ints = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70),
                     st.sampled_from((2**64, -2**64, 2**64 - 1, -(2**64) + 1)))
int_polys = sparse_polys(big_ints)
fraction_polys = sparse_polys(st.one_of(
    big_ints, st.fractions(min_value=-5, max_value=5, max_denominator=7)))


@given(int_polys, int_polys)
@settings(max_examples=300)
def test_int_product_matches_schoolbook(a, b):
    A, B = lp(a), lp(b)
    want = schoolbook(dict(A.items()), dict(B.items()))
    got = A * B
    assert dict(got.items()) == want
    assert all(type(x) is int for _, x in got.items())
    _check_monomial_products(A, B)


def _check_monomial_products(A, B):
    """A monomial taken from B, on either side of A (the shift-and-scale
    path), against the schoolbook product."""
    for n, x in list(B.items())[:1]:
        M = LaurentPoly.monomial(n, x)
        want = schoolbook(dict(A.items()), {n: x})
        assert dict((A * M).items()) == want
        assert dict((M * A).items()) == want
        assert [type(c) for _, c in (A * M).items()] == [type(c) for c in want.values()]


@given(fraction_polys, fraction_polys)
@settings(max_examples=100)
def test_fraction_product_matches_schoolbook(a, b):
    A, B = lp(a), lp(b)
    assert dict((A * B).items()) == schoolbook(dict(A.items()), dict(B.items()))
    _check_monomial_products(A, B)


def test_product_path_by_operands(monkeypatch):
    """Integer operands with nnz(a) nnz(b) >= KRONECKER_MIN_TERMS take the
    big-integer product; Fraction coefficients, monomials, the zero
    polynomial and small products keep the dict loop."""
    from conifoldrh import laurent

    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kronecker(a, b)

    kronecker = laurent._kronecker
    monkeypatch.setattr(laurent, "_kronecker", counted)
    dense = lp({n: (-1) ** (n % 2) * (n + 6) for n in range(-5, 15)})
    sparse = lp({3 * k + 1: 2**65 - k for k in range(0, 40, 5)})
    assert dict((dense * sparse).items()) == schoolbook(dict(dense.items()),
                                                        dict(sparse.items()))
    assert calls == [(20, 8)]
    half = LaurentPoly({n: Fraction(1, 2) for n in range(10)})
    small = lp({n: 1 for n in range(7)})
    for a, b in ((dense, half), (dense, LaurentPoly.monomial(-3, 5)),
                 (dense, LaurentPoly.zero()), (small, small)):
        assert dict((a * b).items()) == schoolbook(dict(a.items()), dict(b.items()))
    assert len(calls) == 1
    assert laurent.KRONECKER_MIN_TERMS > len(small.items()) ** 2


def test_product_slots_hold_the_extreme_coefficients():
    """Dense operands whose every coefficient has the largest magnitude of
    its bit length reach the slot bound min(nnz) max|a| max|b|, at bit
    lengths where the bound falls on a byte boundary and where it does not."""
    for bits_a in (7, 8, 60, 63, 64, 65):
        for bits_b in (1, 8, 60, 63, 64):
            for n in (8, 15, 16, 17):
                for sign in (1, -1):
                    a = {2 * k - 3: 2**bits_a - 1 for k in range(n)}
                    b = {2 * k + 1: sign * (2**bits_b - 1) for k in range(n)}
                    assert dict((lp(a) * lp(b)).items()) == schoolbook(a, b)
