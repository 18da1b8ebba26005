"""Bernoulli numbers, Bernoulli polynomials and multiple Bernoulli polynomials.

The multiple Bernoulli polynomials are the expansion coefficients of

    s^r e^(z s) / prod_i (e^(w_i s) - 1)  =  sum_n  B_{n,r}(z | w) s^n / n!

computed as truncated power-series products of e^(z s) and the series
s/(e^(w_i s) - 1) of the Bernoulli numbers.  The series arithmetic is
generic over the coefficient field: with Fraction inputs everything is exact,
with complex inputs the same code path evaluates numerically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def tangent_numbers(m: int) -> list[int]:
    """T_1..T_m, tan s = sum_k T_k s^(2k-1)/(2k-1)!, in integers (Brent and
    Zimmermann, Modern Computer Arithmetic, Algorithm TangentNumbers)."""
    tangent = [math.factorial(j) for j in range(m)]      # T_(j+1) once done
    for k in range(1, m):
        for j in range(k, m):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tangent


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n from s/(e^s - 1), so B_1 = -1/2 (exact Fractions):
    B_(2m) = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the tangent numbers,
    and every odd B_k past B_1 is zero."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for m, t in enumerate(tangent_numbers(n // 2), 1):
        out[2 * m] = Fraction((-1) ** (m - 1) * 2 * m * t, 4 ** m * (4 ** m - 1))
    return tuple(out[:n + 1])


def bernoulli_poly(n: int, z):
    """B_n(z) = sum_k C(n,k) B_k z^(n-k); exact for Fraction z, numeric otherwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    nums = bernoulli_numbers(n)
    acc = 0
    for k in range(n + 1):
        b = nums[k]
        term = math.comb(n, k) * (b if isinstance(z, Fraction) else complex(b))
        if n - k > 0:
            term = term * z ** (n - k)
        acc = acc + term
    return acc


# -- generic truncated power series helpers (coefficient lists, index = power)


def _series_mul(a: list, b: list, n: int) -> list:
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j in range(0, n + 1 - i):
            bj = b[j]
            if bj == 0:
                continue
            out[i + j] += ai * bj
    return out


def _exp_series(z, n: int, one) -> list:
    """Coefficients of e^(z s) up to s^n."""
    out = [one]
    term = one
    for k in range(1, n + 1):
        term = term * z / k
        out.append(term)
    return out


def multiple_bernoulli(n: int, r: int, z, omegas) -> object:
    """B_{n,r}(z | w_1..w_r) from the Bernoulli numbers.

    Each factor s/(e^(w s) - 1) = sum_k B_k w^(k-1) s^k / k! is a series
    with known coefficients, so B_{n,r} = n! [s^n] e^(zs) prod_i of them.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    omegas = list(omegas)
    if len(omegas) != r:
        raise ValueError(f"expected {r} omega parameters, got {len(omegas)}")
    if any(w == 0 for w in omegas):
        raise ValueError("all omega parameters must be nonzero")

    exact = isinstance(z, Fraction) and all(isinstance(w, Fraction) for w in omegas)
    field = Fraction if exact else complex
    z, omegas = field(z), [field(w) for w in omegas]
    bk = [field(b) / math.factorial(k) for k, b in enumerate(bernoulli_numbers(n))]

    series = _exp_series(z, n, field(1))
    for w in omegas:
        series = _series_mul(series, [b * w ** (k - 1) for k, b in enumerate(bk)], n)
    return field(series[n] * math.factorial(n))


def zeta_int(d: int) -> float:
    """zeta(d) for integer d >= 2: direct series with an Euler-Maclaurin tail.

    zeta(2) is returned as pi^2/6 exactly (in floating point); for the rest
    the tail sum_{m>=N} m^-d is expanded to three correction orders, which
    reaches ~1e-15 relative accuracy already at N = 64.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if d == 2:
        return math.pi**2 / 6
    head = sum(m ** (-float(d)) for m in range(1, 64))
    n = 64.0
    tail = (n ** (1 - d) / (d - 1) + 0.5 * n ** (-d) + d / 12 * n ** (-d - 1)
            - d * (d + 1) * (d + 2) / 720 * n ** (-d - 3))
    return head + tail
