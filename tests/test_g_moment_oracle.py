"""g_moment_series against an independent 30-digit mpmath evaluation.

The oracle sums the residues of the g integrand the way the series was first
written, as the double sum sum_{m>=0} Li_(-order)(w q^m) over each pole
family, with mpmath's polylog; the package sums the equal Lambert series
sum_n n^order w^n / (1 - q^n) in double precision.

The points follow the D_n geometry w1t/w1 = 1 - i sigma, where the two pole
families near coincidence as sigma -> 0 and |q| = exp(-2 pi sigma) -> 1.  At
z = dw the families cancel down to an O(1) sum from terms of size about
sigma^-(order+1), so the orders >= 0 there are checked only where that
cancellation leaves 1e-12 attainable in double precision.  Orders 1 and 3
there, and the z = v point whose families cancel too far for the series'
proved bound, go through the route `g_moment`: the series where its error
bound, summed over both families, is within the quadrature tolerance,
quadrature elsewhere.
"""

import cmath
import math

import mpmath
import pytest

from conifoldrh.checks import RegionError
from conifoldrh.multisine import clear_caches, g_moment, g_moment_series

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


#: where the series' proved rounding bound is above SAFETY times the
#: quadrature tolerance (the two families cancel from about 1200 each to 21,
#: bound 9e-11): the series is refused there and `g_moment` takes quadrature
REFUSED = {(0.9, "v", 3)}


@pytest.mark.parametrize("abs_q,where,order", CASES)
def test_g_moment_series_matches_mpmath(abs_q, where, order):
    w1, w1t = point(abs_q)
    z = 0.3 + 0.4j if where == "v" else (w1 - w1t) / 2
    ref = oracle(order, z, w1, w1t)
    if (abs_q, where, order) in REFUSED:
        with pytest.raises(RegionError, match="error bound"):
            g_moment_series(order, z, w1, w1t)
        clear_caches()
        value = g_moment(order, z, w1, w1t)
    else:
        value = g_moment_series(order, z, w1, w1t)
    assert abs(value - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("abs_q,order,series,rel", [
    (0.5, 1, True, 1e-12), (0.5, 3, False, 1e-11), (0.9, 1, False, 1e-12),
    (0.9, 3, False, 1e-8)])
def test_g_moment_route_at_dw_matches_mpmath(abs_q, order, series, rel):
    """Each case is held to what its route was measured to reach.  Where the
    bound refuses the series, quadrature is the closer route: at (0.9, 1) it
    is 2.9e-13 off where the series is 6e-12 off (1.1e-11 for the plain
    sum), at (0.9, 3) 3.2e-9 where the series is 2.5e-7, and at (0.5, 3)
    6.8e-12 where the series is 2e-11."""
    w1, w1t = point(abs_q)
    z = (w1 - w1t) / 2
    clear_caches()
    value = g_moment(order, z, w1, w1t)
    if series:
        assert value == g_moment_series(order, z, w1, w1t)
    else:
        with pytest.raises(RegionError, match="error bound"):
            g_moment_series(order, z, w1, w1t)
    ref = oracle(order, z, w1, w1t)
    assert abs(value - ref) < rel * abs(ref)
