import cmath
import math

import pytest

from conifoldrh import multisine
from conifoldrh.contour import QuadratureError
from conifoldrh.lattice import RegionError
from conifoldrh.multisine import (F_product, F_star, F_value, G_star,
                                  PoleZeroError, asymptotic_infinity_fit,
                                  asymptotic_order_small_w2, clear_caches,
                                  f_moment, g_moment, g_moment_quad,
                                  g_moment_series, log_F_contour, log_F_star,
                                  log_G_cached, log_G_star, qdilog_numeric,
                                  reflection_rhs_F, reflection_rhs_G)

Z, OB, W2 = 0.3 + 0.4j, 1 + 0.5j, 0.8 - 0.1j
W1, W1T = 1 + 0.1j, 0.95 - 0.07j
W2R = 0.3 - 0.75j     # Im(w1/w2r) > 0 and Im(w1t/w2r) > 0


# ---------------------------------------------------------------------------
# qdilog numerics


def test_qdilog_trivial():
    assert qdilog_numeric(0.0, 0.7) == 1.0
    assert abs(qdilog_numeric(0.3 + 0.1j, 0.0) - (0.7 - 0.1j)) < 1e-15


def test_qdilog_known_value():
    # brute-force frozen oracle: prod_{k<200} (1 - 2^-(k+1))
    brute = 1.0
    for k in range(200):
        brute *= 1 - 0.5 * 0.5**k
    assert abs(qdilog_numeric(0.5, 0.5) - brute) < 1e-12
    assert abs(brute - 0.2887880950866024) < 1e-15


def test_qdilog_rejects_big_q():
    with pytest.raises(RegionError):
        qdilog_numeric(0.5, 1.0)


def test_qdilog_unconverged_product_raises():
    # |q| so close to 1 that the tail bound needs ~5e9 factors: the product
    # reports the exhausted factor budget instead of returning a truncation
    with pytest.raises(QuadratureError, match="not converged"):
        qdilog_numeric(0.5, 0.99999999)


# ---------------------------------------------------------------------------
# cross representation and structure of F


def test_contour_vs_product_at_spec_point():
    lf, err = log_F_contour(Z, OB, W2)
    fp = F_product(Z, OB, W2)
    assert abs(cmath.exp(lf) - fp) / abs(fp) < 1e-8
    assert err < 1e-9


def test_contour_difference_relations():
    """The difference relations checked through the contour route itself."""
    x2 = cmath.exp(2j * math.pi * Z / W2)
    x1 = cmath.exp(2j * math.pi * Z / OB)
    lf = log_F_contour(Z, OB, W2)[0]
    d1 = log_F_contour(Z + OB, OB, W2)[0] - lf
    assert abs(cmath.exp(d1) - 1 / (1 - x2)) < 1e-10
    d2 = log_F_contour(Z + W2, OB, W2)[0] - lf
    assert abs(cmath.exp(d2) - 1 / (1 - x1)) < 1e-10


def test_F_value_near_unit_p_takes_contour():
    # Im(w1bar/w2) = 1e-6 > 0, but |p| = exp(-2 pi 1e-6) needs ~4e6 factors,
    # beyond MAX_FACTORS: F_product refuses the point before multiplying any,
    # and F_value takes the contour
    z, w1bar, w2 = 0.3 + 0.4j, 1, 1 - 1e-6j
    with pytest.raises(RegionError, match="q-product factors < 200000"):
        F_product(z, w1bar, w2)
    lf, _ = log_F_contour(z, w1bar, w2)
    assert abs(lf - (-0.0228 - 0.0677j)) < 1e-4
    assert abs(F_value(z, w1bar, w2) - cmath.exp(lf)) < 1e-8


def test_product_requires_orientation():
    with pytest.raises(RegionError):
        F_product(Z, OB, 0.8 + 0.6j)   # Im(obar/w2) < 0
    # the symmetric fallback still evaluates it
    v = F_value(Z, OB, 0.8 + 0.6j)
    lf, _ = log_F_contour(Z, OB, 0.8 + 0.6j)
    assert abs(v - cmath.exp(lf)) / abs(v) < 1e-8


def test_F_zero_at_origin_and_pole_structure():
    # z -> 0: the k=0 factor of the x2 family vanishes
    ray = 0.35 * OB + 0.4 * W2
    vals = [abs(F_value(eps * ray, OB, W2)) for eps in (0.2, 0.05, 0.01)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.07
    # exact lattice zero is flagged, not returned as a number
    with pytest.raises(PoleZeroError):
        F_product(0.0, OB, W2)
    # |F| blows up near the pole z = obar + w2
    near_pole = abs(F_value(0.9995 * (OB + W2), OB, W2))
    assert near_pole > 50 * abs(F_value(0.4 * OB + 0.4 * W2, OB, W2))


def test_log_F_contour_rejects_bad_strip():
    # z outside every rotated strip: hull of directions >= pi
    from conifoldrh.contour import RotationError
    with pytest.raises(RotationError):
        log_F_contour(-1.5 * OB, OB, W2)


# ---------------------------------------------------------------------------
# starred functions


def test_F_star_region_named():
    """F* refuses through its own checklist, before any moment is formed."""
    with pytest.raises(RegionError) as exc:
        F_star(0.3 - 0.4j, 1.0 + 0j, W2)
    assert str(exc.value) == "F* undefined; region violation: Im(z/w1bar) > 0"


def test_G_star_region_named():
    with pytest.raises(RegionError) as exc:
        G_star(Z, W1T, W1, W2R)    # swapped pair: Im(dw/w1) < 0
    assert "Im(dw/w1)" in str(exc.value)


def test_fstar_independent_of_route():
    v1 = F_star(Z, OB, W2)
    # force the contour route with an explicit tolerance
    lf, _ = log_F_contour(Z, OB, W2, 1e-13)
    v2 = cmath.exp(lf + (log_F_star(Z, OB, W2) - cmath.log(F_value(Z, OB, W2))))
    assert abs(v1 - v2) / abs(v1) < 1e-9


def test_gg2_needs_constant_correction():
    """The naive starred reflection product G*(w2) G*(-w2) differs from the
    z-dependent double product by the z-independent reflection constant at
    z = dw; dividing it out closes the identity."""
    dw = (W1 - W1T) / 2
    lhs = cmath.exp(log_G_star(Z, W1, W1T, W2R) + log_G_star(Z, W1, W1T, -W2R))
    rhs_displayed = reflection_rhs_G(Z, W1, W1T, W2R)
    corr = reflection_rhs_G(dw, W1, W1T, W2R)
    assert abs(corr - 1) > 1e-4          # the constant is genuinely there
    assert abs(lhs - rhs_displayed) / abs(lhs) > 1e-4
    assert abs(lhs - rhs_displayed / corr) / abs(lhs) < 1e-10


def test_reflection_rhs_limits():
    # scaling up (w1, w1t) with z = obar/2 sends every product argument to
    # zero, so both right-hand sides reduce to empty products
    for s in (6.0, 10.0):
        w1, w1t = s * W1, s * W1T
        z = (w1 + w1t) / 4
        assert abs(reflection_rhs_F(z, w1, w1t, W2R) - 1) < 1e-5
        assert abs(reflection_rhs_G(z, w1, w1t, W2R) - 1) < 1e-5


def test_reflection_rhs_regions():
    w2bad = 0.8 + 0.6j     # Im(w1/w2) < 0
    with pytest.raises(RegionError):
        reflection_rhs_F(Z, W1, W1T, w2bad)
    with pytest.raises(RegionError):
        reflection_rhs_G(Z, W1, W1T, w2bad)


def test_reflection_rhs_G_reports_exhausted_budget():
    """At |q2| = 0.989 and |q2t| = 0.9996 the double product would need about
    1.5e8 factors: it raises once its rows would pass MAX_FACTORS in all,
    before taking them, instead of running for minutes."""
    import time
    w2 = 100 * cmath.exp(-0.08j)
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match="not converged within 200000 factors"):
        reflection_rhs_G(Z, W1, W1T, w2)
    assert time.perf_counter() - t0 < 5


# ---------------------------------------------------------------------------
# asymptotics (smaller copies of the acceptance checks)


def test_asymptotic_order_F_small():
    r = asymptotic_order_small_w2("F", Z, (1 + 0.05j,), 1,
                                  w2_dir=cmath.exp(-0.2j))
    assert r.passed and r.name == "F remainder order K=1" and abs(r.lhs - 1) < 0.2


def test_asymptotic_infinity_F_small():
    rows = asymptotic_infinity_fit("F", Z, (1 + 0.05j,), cmath.exp(-0.3j))
    assert [r.name for r in rows] == ["F infinity coefficient (linear)",
                                      "F infinity coefficient (log)"]
    assert all(r.passed and r.rel_err < 1e-4 for r in rows)


def test_moments_cached_and_consistent():
    a = f_moment(-2, Z, OB)
    b = multisine.f_moment_quad(-2, Z, OB)[0]
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_cache_key_covers_spec():
    """A warm entry for one tolerance is never served for another: with
    both tolerances warm, each call returns its own cold value."""
    tols = (1e-7, 3e-11)
    cold = {}
    for tol in tols:
        clear_caches()
        cold[tol] = log_G_cached(Z, W1, W1T, W2R, tol)
    assert cold[tols[0]] != cold[tols[1]]
    clear_caches()
    for tol in tols:
        log_G_cached(Z, W1, W1T, W2R, tol)
    for tol in tols:
        assert log_G_cached(Z, W1, W1T, W2R, tol) == cold[tol]


def test_cache_is_bounded():
    clear_caches()
    for j in range(multisine.CACHE_SIZE + 100):
        f_moment(0, Z + 1e-6 * j, OB)
        assert multisine._memo.cache_info().currsize <= multisine.CACHE_SIZE
    assert multisine._memo.cache_info().currsize == multisine.CACHE_SIZE
    clear_caches()
    assert multisine._memo.cache_info().currsize == 0


def _bits(v):
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def _zero_flips(args):
    """args with the sign of one zero real or imaginary part flipped, for
    every such part of every argument."""
    for i, a in enumerate(args):
        if a.real == 0:
            yield args[:i] + (complex(-a.real, a.imag),) + args[i + 1:]
        if a.imag == 0:
            yield args[:i] + (complex(a.real, -a.imag),) + args[i + 1:]


@pytest.mark.parametrize("fn,args", [
    # w1 on the negative real axis: its phase is +pi or -pi by the zero's sign
    (log_G_cached, (0.3j, complex(-1, 0), -0.9j, -1j)),
    (log_G_cached, (complex(0.3, 0), complex(1, 0), complex(0.95, 0), -0.75j)),
    # z on the negative real axis sets the moment contour's rotation
    (lambda z, w: multisine._cached(multisine.f_moment_quad, 0, z, w),
     (complex(-0.4, 0), 1 + 0.5j)),
    (lambda z, w: f_moment(1, z, w), (complex(-0.4, 0), 1 + 0.5j)),
    (lambda z, w: f_moment(1, z, w), (0.4j, complex(1, 0))),
    # w1t/w1 is real, so the series is refused and quadrature runs
    (lambda z, a, b: g_moment(0, z, a, b), (0.4j, complex(1, 0), complex(0.95, 0))),
    (lambda z, a, b: g_moment(1, z, a, b), (0.4j, complex(1, 0), complex(0.95, 0))),
])
def test_cache_tells_signed_zeros_apart(fn, args):
    """0.0 == -0.0 as a dict key, but a phase tells them apart: a warm call
    with one zero's sign flipped returns exactly what a cold call returns."""
    for flipped in _zero_flips(args):
        clear_caches()
        cold = fn(*flipped)
        clear_caches()
        fn(*args)
        assert _bits(fn(*flipped)) == _bits(cold)


# ---------------------------------------------------------------------------
# g-moment residue series: guard and route near coincident pole families

#: w1t/w1 = 1 - i sigma with |q| = exp(-2 pi sigma) = 0.999: the t -> 0 regime
W1Q = cmath.exp(0.1j)
W1TQ = W1Q * (1 - 1j * -math.log(0.999) / (2 * math.pi))
DWQ = (W1Q - W1TQ) / 2


def test_g_series_guard_falls_back_to_quadrature():
    # at z = dw, |w| = |q| = 0.999: the Lambert series would need ~37000 terms
    clear_caches()
    for order in (-2, -1):
        with pytest.raises(RegionError, match="impractically slow"):
            g_moment_series(order, DWQ, W1Q, W1TQ)
        quad, _ = g_moment_quad(order, DWQ, W1Q, W1TQ)
        assert abs(g_moment(order, DWQ, W1Q, W1TQ) - quad) < 1e-8 * abs(quad)


def test_g_series_route_at_the_qrh_limit_point():
    """The `verify --suite qrh-limits` ray t = t_sw 2^-j, whose z = dw
    moments are one-nome families at |q| -> 1: at j = 7 (|q| = 0.997,
    about 15,000 terms per family) orders -2 and -1 take the series, split
    into polylogs and a shifted kernel, and no quadrature; at j = 8 the
    unshifted count passes MAX_LAMBERT_TERMS and the series is refused."""
    t_sw, tau = 0.8 * cmath.exp(1j * (math.pi - 0.5)), 0.15 * cmath.exp(1.2j)
    for j, series in ((7, True), (8, False)):
        tt2 = t_sw * 0.5**j * tau / 2
        w1, w1t = 1 - tt2, 1 + tt2
        dw = (w1 - w1t) / 2
        for order in (-2, -1):
            clear_caches()
            if series:
                assert g_moment(order, dw, w1, w1t) == g_moment_series(order, dw, w1, w1t)
            else:
                with pytest.raises(RegionError, match="impractically slow"):
                    g_moment_series(order, dw, w1, w1t)


def test_g_series_route_at_small_w_near_unit_q():
    # at z = v, |w| ~ 0.1: the series needs about 16 terms although
    # |q| = 0.999 (summed over m, Li(w q^m) would need ~34000), so it runs;
    # at orders 0 and 1 its two families cancel (from about 3600 each to 1.3
    # at order 1), and the proved rounding bound (2e-11, 1.5e-10) sends those
    # moments to quadrature, which is within 3e-14 of a 30-digit sum there
    clear_caches()
    for order in (-2, -1, 0, 1):
        quad, _ = g_moment_quad(order, Z, W1Q, W1TQ)
        if order >= 0:
            with pytest.raises(RegionError, match="error bound"):
                g_moment_series(order, Z, W1Q, W1TQ)
            assert g_moment(order, Z, W1Q, W1TQ) == quad
            continue
        series = g_moment_series(order, Z, W1Q, W1TQ)
        assert g_moment(order, Z, W1Q, W1TQ) == series
        assert abs(series - quad) < 1e-8 * abs(quad)


def test_lambert_term_count():
    # the guard's count is the loop's: past the peak of n^order |w|^n,
    # the first n with n^max(order, 0) |w|^n <= tol
    for order, aw in ((-2, 0.1), (0, 0.5), (1, 0.9), (3, 0.99), (3, 0.3)):
        n = math.ceil(multisine._lambert_terms(order, aw, 1e-16))
        p = max(order, 0)
        assert n > p / -math.log(aw)
        assert n**p * aw**n <= 1e-16 < (n - 1)**p * aw**(n - 1) or n == 1
    assert multisine._lambert_terms(0, 0.0, 1e-16) == 0
