import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifoldrh.bernoulli import (bernoulli_numbers, bernoulli_poly,
                                  multiple_bernoulli, zeta_int)


def bernoulli_numbers_oracle(n):
    """Independent route: Akiyama-Tanigawa, adjusted to the B_1 = -1/2
    convention used by the generating function s/(e^s - 1)."""
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    out = list(out)
    if n >= 1:
        out[1] = -out[1]
    return out


def test_bernoulli_numbers_against_oracle():
    assert list(bernoulli_numbers(12)) == bernoulli_numbers_oracle(12)


def test_bernoulli_poly_small_values():
    assert bernoulli_poly(0, Fraction(5)) == 1
    assert bernoulli_poly(1, Fraction(0)) == Fraction(-1, 2)
    assert bernoulli_poly(2, Fraction(0)) == Fraction(1, 6)
    # B_1(z) = z - 1/2
    assert bernoulli_poly(1, Fraction(3, 4)) == Fraction(1, 4)


def test_multiple_bernoulli_closed_forms_exact():
    z = Fraction(2, 5)
    w1, w2 = Fraction(3, 2), Fraction(-7, 4)
    assert multiple_bernoulli(0, 2, z, [w1, w2]) == 1 / (w1 * w2)
    assert multiple_bernoulli(1, 2, z, [w1, w2]) == \
        z / (w1 * w2) - (w1 + w2) / (2 * w1 * w2)
    assert multiple_bernoulli(2, 2, z, [w1, w2]) == \
        z * z / (w1 * w2) - (1 / w1 + 1 / w2) * z \
        + Fraction(1, 6) * (w2 / w1 + w1 / w2) + Fraction(1, 2)


def test_b22_at_unit_parameters():
    assert multiple_bernoulli(2, 2, Fraction(0), [Fraction(1), Fraction(1)]) \
        == Fraction(5, 6)


def test_r1_reduces_to_bernoulli_poly():
    # B_{n,1}(z | w) = w^(n-1) B_n(z/w)
    z, w = Fraction(1, 3), Fraction(5, 2)
    for n in range(5):
        assert multiple_bernoulli(n, 1, z, [w]) == \
            w ** (n - 1) * bernoulli_poly(n, z / w)


RATIONAL_Z = [Fraction(a, 4) for a in range(-4, 5)]
RATIONAL_W = [s * Fraction(a, b) for s in (1, -1)
              for a, b in ((1, 2), (2, 3), (1, 1), (3, 2), (2, 1))]


@given(st.integers(0, 6), st.sampled_from(RATIONAL_Z),
       st.lists(st.sampled_from(RATIONAL_W), min_size=1, max_size=3))
@settings(max_examples=200)
def test_complex_path_matches_fraction_path(n, z, ws):
    """The complex path sums the same series as the exact one: at rational
    points with |z| <= 1 and 1/2 <= |w| <= 2, where no term is large enough
    to cancel, they agree to 1e-13 of max(1, |B_{n,r}|)."""
    exact = multiple_bernoulli(n, len(ws), z, ws)
    approx = multiple_bernoulli(n, len(ws), complex(z), [complex(w) for w in ws])
    assert type(exact) is Fraction and type(approx) is complex
    assert abs(approx - complex(exact)) <= 1e-13 * max(1, abs(exact))


@given(st.complex_numbers(min_magnitude=0.2, max_magnitude=3,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=30)
def test_homogeneity(c):
    z = 0.2 + 0.1j
    ws = [1.0 + 0j, 1 + 0.2j, 0.8 - 0.1j]
    for n, r in ((1, 2), (2, 2), (3, 3)):
        lhs = multiple_bernoulli(n, r, c * z, [c * w for w in ws[:r]])
        rhs = c ** (n - r) * multiple_bernoulli(n, r, z, ws[:r])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_input_validation():
    with pytest.raises(ValueError):
        multiple_bernoulli(1, 2, Fraction(0), [Fraction(1), Fraction(0)])
    with pytest.raises(ValueError):
        multiple_bernoulli(1, 0, Fraction(0), [])
    with pytest.raises(ValueError):
        multiple_bernoulli(-1, 2, Fraction(0), [Fraction(1), Fraction(1)])


def test_zeta_values():
    assert zeta_int(2) == math.pi**2 / 6
    assert abs(zeta_int(3) - 1.2020569031595942854) < 1e-14
    assert abs(zeta_int(4) - math.pi**4 / 90) < 1e-14
