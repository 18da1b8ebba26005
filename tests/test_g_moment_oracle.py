"""g_moment_series against an independent 30-digit mpmath evaluation.

The oracle sums the residues of the g integrand the way the series was first
written, as the double sum sum_{m>=0} Li_(-order)(w q^m) over each pole
family, with mpmath's polylog; the package sums the equal Lambert series
sum_n n^order w^n / (1 - q^n) in double precision.

The points follow the D_n geometry w1t/w1 = 1 - i sigma, where the two pole
families near coincidence as sigma -> 0 and |q| = exp(-2 pi sigma) -> 1.  At
z = dw the families cancel down to an O(1) sum from terms of size about
sigma^-(order+1), so the orders >= 0 there are checked only where that
cancellation leaves 1e-12 attainable in double precision.
"""

import cmath
import math

import mpmath
import pytest

from conifoldrh.multisine import g_moment_series

mp = mpmath.mp


def oracle(order, z, w1, w1t):
    with mpmath.workdps(30):
        z, w1, w1t = mpmath.mpc(z), mpmath.mpc(w1), mpmath.mpc(w1t)
        total = 0
        for a, b in ((w1, w1t), (w1t, w1)):
            # residues at s = 2 pi i m / a, the 1/(e^(b s) - 1) factor
            # expanded geometrically in whichever of rho^(+-2) is small
            rho = mpmath.exp(1j * mp.pi * b / a)
            u = mpmath.exp(2j * mp.pi * z / a)
            if abs(rho) < 1:
                w, q, sign = -u * rho, rho**2, 1
            else:
                w, q, sign = -u / rho, rho**-2, -1
            acc = 0
            x = w
            gap = 1 - abs(q)
            while True:
                acc += mpmath.polylog(-order, x)
                x *= q
                if abs(x) < 1e-16 * gap * abs(acc):
                    break
            total += sign * (2j * mp.pi / a) ** order / a * acc
        return complex(2j * mp.pi * total)


def point(abs_q):
    sigma = -math.log(abs_q) / (2 * math.pi)
    w1 = cmath.exp(0.1j)
    return w1, w1 * (1 - 1j * sigma)


CASES = ([(0.5, "v", k) for k in (-2, -1, 0, 1, 3)]
         + [(0.5, "dw", k) for k in (-2, -1, 0, 1)]
         + [(0.9, "v", k) for k in (-2, 1, 3)]
         + [(0.9, "dw", k) for k in (-2, -1, 0)]
         + [(0.99, "v", 0)])


@pytest.mark.parametrize("abs_q,where,order", CASES)
def test_g_moment_series_matches_mpmath(abs_q, where, order):
    w1, w1t = point(abs_q)
    z = 0.3 + 0.4j if where == "v" else (w1 - w1t) / 2
    ref = oracle(order, z, w1, w1t)
    assert abs(g_moment_series(order, z, w1, w1t) - ref) < 1e-12 * abs(ref)
