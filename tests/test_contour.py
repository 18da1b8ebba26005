import cmath
import math
import sys

import mpmath
import pytest

from conifoldrh.contour import (DEFAULT_TOL, SAFETY, ContourSpec, QuadratureError,
                                RotationError, detour_integral, hull_rotation,
                                integrate_segment)
from conifoldrh import contour, multisine
from conifoldrh.checks import Predicate, require
from conifoldrh.lattice import RegionError
from conifoldrh.multisine import (TWO_PI_I, f_moment_quad, f_moment_series,
                                  g_moment_quad, g_moment_series,
                                  residue_lemma_check)

#: terms the residue-sum oracle adds before it gives up
ORACLE_MAX_TERMS = 100_000


def f_moment_residue_oracle(order, z, w1bar, tol=1e-14):
    """Plain truncated residue sum 2 pi i sum_m e^(z s_m) s_m^order / w1bar,
    s_m = 2 pi i m / w1bar: the independent oracle for the quadrature route.
    Raises QuadratureError if a term is still above tol after
    ORACLE_MAX_TERMS terms."""
    if order > -1:
        raise ValueError("direct residue sum only converges for order <= -1")
    x1 = cmath.exp(TWO_PI_I * z / w1bar)
    require([Predicate("|x1| < 1", 1 - abs(x1))], "f-moment residue sum")
    acc, term = 0j, x1
    for m in range(1, ORACLE_MAX_TERMS + 1):
        acc += term * (TWO_PI_I * m / w1bar) ** order
        term *= x1
        if abs(term) <= tol:
            return TWO_PI_I * acc / w1bar
    raise QuadratureError(
        f"f-moment residue sum not converged within {ORACLE_MAX_TERMS} terms")


def test_segment_polynomial_exact():
    val, err = integrate_segment(lambda s: s**3, 0, 1 + 1j, 1e-12)
    assert abs(val - (1 + 1j) ** 4 / 4) < 1e-13


def test_segment_oscillatory():
    val, err = integrate_segment(lambda s: cmath.exp(1j * 40 * s), 0.0, 2.0, 1e-11)
    exact = (cmath.exp(80j) - 1) / (40j)
    assert abs(val - exact) < 1e-10



class Counted:
    """Integrand wrapper that counts its scalar calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, s):
        self.calls += 1
        return self.f(s)


#: a complex segment for the exactness checks
SEG_A, SEG_B = -0.3 + 0.2j, 0.7 + 0.9j


def _power_integral(k):
    return (SEG_B ** (k + 1) - SEG_A ** (k + 1)) / (k + 1)


def test_one_panel_is_21_evaluations():
    f = Counted(cmath.exp)
    val, err = integrate_segment(f, 0.0, 0.5 + 0.5j, 1e-3)
    assert f.calls == 21
    assert abs(val - (cmath.exp(0.5 + 0.5j) - 1)) < 1e-14


@pytest.mark.parametrize("k", range(32))
def test_kronrod_rule_exact_to_degree_31(k, monkeypatch):
    monkeypatch.setattr(contour, "MAX_PANELS", 1)
    val, _ = integrate_segment(lambda s: s**k, SEG_A, SEG_B, 1.0)
    exact = _power_integral(k)
    assert abs(val - exact) <= 1e-14 * max(1.0, abs(exact))


@pytest.mark.parametrize("k", range(20))
def test_embedded_gauss_rule_exact_to_degree_19(k, monkeypatch):
    # on one panel the estimate is |K21 - G10|; K21 is exact here, so the
    # estimate is the G10 error
    monkeypatch.setattr(contour, "MAX_PANELS", 1)
    _, err = integrate_segment(lambda s: s**k, SEG_A, SEG_B, 1.0)
    assert err <= 1e-14 * max(1.0, abs(_power_integral(k)))


def test_embedded_gauss_rule_not_exact_at_degree_20(monkeypatch):
    monkeypatch.setattr(contour, "MAX_PANELS", 1)
    _, err = integrate_segment(lambda s: s**20, SEG_A, SEG_B, 1.0)
    assert err > 1e-12


def test_exhausted_budget_returns_estimate(monkeypatch):
    """Past the panel budget the call returns its estimate, above SAFETY*tol,
    instead of raising: exactly MAX_PANELS panels, 21 (2 n - 1) calls."""
    monkeypatch.setattr(contour, "MAX_PANELS", 50)
    f = Counted(cmath.sqrt)
    val, err = integrate_segment(f, 0.0, 1 + 1j, 1e-30)
    assert f.calls == 21 * (2 * 50 - 1)
    assert err > SAFETY * 1e-30
    assert abs(val - 2 / 3 * (1 + 1j) ** 1.5) < 1e-6


def test_detour_arc_honours_panel_budget(monkeypatch):
    """MAX_PANELS caps the origin semicircle as well as the half-lines."""
    monkeypatch.setattr(contour, "MAX_PANELS", 20)
    f = Counted(lambda s: s**-4)
    with pytest.raises(QuadratureError):
        detour_integral(f, f, 1e-3, 8.0, 1 + 0j, 1e-14)
    # 13 half-line segments on each side plus the arc, each at most
    # 21 (2 * 20 - 1) calls
    assert f.calls <= 27 * 21 * (2 * 20 - 1)


def test_detour_picks_up_residue():
    # int over the detour of 1/s is -i pi (half residue, passing above 0)
    inv = lambda s: 1 / s
    val, err = detour_integral(inv, inv, 0.5, 40.0, 1 + 0j, 1e-11)
    assert abs(val - (-1j * math.pi)) < 1e-10
    # odd negative powers integrate to ~ -2/R^2/... -> essentially 0 at large R
    cube = lambda s: s**-3
    val, _ = detour_integral(cube, cube, 0.5, 1e4, 1 + 0j, 1e-11)
    assert abs(val) < 1e-8


def test_detour_routes_each_form_to_its_segments():
    """`upper` sees only points c x with x >= eps (the positive half-line);
    `lower` sees c[-R, -eps] and the arc, and no point of c[eps, R]."""
    c, eps, R = cmath.exp(0.7j), 0.5, 8.0
    seen = {"lower": [], "upper": []}

    def form(name):
        def f(s):
            seen[name].append(s / c)
            return cmath.exp(-s * s.conjugate()) / s
        return f

    detour_integral(form("lower"), form("upper"), eps, R, c, 1e-9)
    assert seen["lower"] and seen["upper"]
    for x in seen["upper"]:
        assert abs(x.imag) <= 1e-14 * abs(x) and x.real >= eps * (1 - 1e-14)
    for x in seen["lower"]:
        on_arc = x.imag > 0 and abs(abs(x) - eps) <= 1e-14 * eps
        assert on_arc or x.real <= -eps * (1 - 1e-14)


def test_hull_rotation():
    c, margin = hull_rotation([1 + 0j, 1j])
    assert margin > 0
    for d in (1 + 0j, 1j):
        assert (c * d).real > 0
    with pytest.raises(RotationError):
        hull_rotation([1 + 0j, 1j, -0.5 - 0.5j], ["a", "b", "c"])


def test_hull_rotation_repeated_direction():
    """Directions that all share one phase admit the rotation onto that ray
    with the full margin pi/2."""
    c, margin = hull_rotation([1 + 1j, 1 + 1j])
    assert margin == math.pi / 2
    assert abs(c * (1 + 1j) - abs(1 + 1j)) < 1e-15


def test_nonconvergent_tail_raises():
    from conifoldrh.contour import choose_outer_cutoff
    with pytest.raises(QuadratureError):
        choose_outer_cutoff(lambda s: 1 / (1 + s * s.conjugate()), 1 + 0j,
                            0.5, 1e-10)


# ---------------------------------------------------------------------------
# moment integrals: quadrature vs residue resummation vs plain residue sum


Z, OB = 0.3 + 0.4j, 1 + 0.1j
W1, W1T = 1 + 0.1j, 0.95 - 0.07j


@pytest.mark.parametrize("order", [-2, -1, 0, 1, 2])
def test_f_moment_routes_agree(order):
    q = f_moment_quad(order, Z, OB)[0]
    s = f_moment_series(order, Z, OB)
    assert abs(q - s) <= 1e-9 * max(1.0, abs(s))


@pytest.mark.parametrize("order", [-3, 5])
def test_f_moment_past_the_closed_forms_takes_quadrature(order):
    """Orders -3 and 5 lie past the five closed forms `polylog` once had.
    Order -3 (Li_3) is still refused by the series' order predicate and
    `f_moment` takes quadrature; order 5 is the series with the Eulerian
    Li_(-5), and quadrature agrees with it.  Each matches
    (2 pi i/w1bar)^(order+1) Li_(-order)(x1) from mpmath."""
    with mpmath.workdps(30):
        z, ob = mpmath.mpc(Z), mpmath.mpc(OB)
        x1 = mpmath.exp(2j * mpmath.pi * z / ob)
        ref = complex((2j * mpmath.pi / ob) ** (order + 1) * mpmath.polylog(-order, x1))
    if order < -2:
        with pytest.raises(RegionError, match="order >= -2"):
            f_moment_series(order, Z, OB)
    else:
        assert abs(f_moment_series(order, Z, OB) - ref) <= 1e-12 * abs(ref)
    assert abs(f_moment_quad(order, Z, OB)[0] - ref) <= 1e-12 * abs(ref)
    assert abs(multisine.f_moment(order, Z, OB) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("n", range(9))
def test_eulerian_polylog_of_nonpositive_order(n):
    """Li_(-n)(x) = x A_n(x) / (1 - x)^(n+1) against mpmath, inside the
    unit disc and near its edge."""
    for x in (0.3 + 0.5j, -0.9 + 0.1j, 0.05j, 0.95 * cmath.exp(0.4j)):
        ref = complex(mpmath.polylog(-n, mpmath.mpc(x)))
        assert abs(multisine.polylog(-n, x) - ref) <= 1e-13 * abs(ref), x


@pytest.mark.parametrize("r", [0.9, 0.999, 1 - 1e-7])
@pytest.mark.parametrize("arg", [0.0, 0.4, -1.7, 3.1])
def test_li2_near_the_unit_circle(r, arg):
    """Li_2 past |x| = 1/2 takes the series in log x, which converges up to
    |x| -> 1, where the power series would need about 37/(1 - |x|) terms."""
    x = r * cmath.exp(1j * arg)
    ref = complex(mpmath.polylog(2, mpmath.mpc(x)))
    assert abs(multisine.polylog(2, x) - ref) <= 1e-12 * abs(ref)


def test_li2_on_both_sides_of_the_switch():
    for r in (multisine.LI2_SWITCH, multisine.LI2_SWITCH * (1 + 1e-15), 0.3, 0.7):
        for arg in (0.0, 1.0, math.pi):
            x = r * cmath.exp(1j * arg)
            ref = complex(mpmath.polylog(2, mpmath.mpc(x)))
            assert abs(multisine.polylog(2, x) - ref) <= 1e-14 * abs(ref)


def test_li2_table_equals_the_bernoulli_table():
    """The tangent-number table of the series in log x is, value for value,
    zeta(2-k)/k! = (-1)^k B_(k-1)/((k-1) k!) from the exact Bernoulli numbers."""
    from conifoldrh.bernoulli import bernoulli_numbers
    nums = bernoulli_numbers(63)
    ref = tuple((k, float((-1) ** k * nums[k - 1] / ((k - 1) * math.factorial(k))))
                for k in range(2, 65) if nums[k - 1])
    table = multisine._li2_log_coeffs()
    assert len(table) == 32
    assert [(k, c.hex()) for k, c in table] == [(k, c.hex()) for k, c in ref]


def test_f_moment_near_unit_x1_takes_the_series():
    """At z = 1e-7 i, w1bar = 1, |x1| = 1 - 6.3e-7: the series route returns
    (2 pi i)^(-1) Li_2(x1), where quadrature has no contour."""
    z, ob = 1e-7j, 1 + 0j
    with mpmath.workdps(30):
        x1 = mpmath.exp(2j * mpmath.pi * mpmath.mpc(z) / ob)
        ref = complex(mpmath.polylog(2, x1) / (2j * mpmath.pi / ob))
    assert abs(f_moment_series(-2, z, ob) - ref) <= 1e-12 * abs(ref)
    assert abs(multisine.f_moment(-2, z, ob) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("order", [-2, -1, 0, 1])
def test_g_moment_routes_agree(order):
    q = g_moment_quad(order, Z, W1, W1T)[0]
    s = g_moment_series(order, Z, W1, W1T)
    assert abs(q - s) <= 1e-8 * max(1.0, abs(s))


def test_f_moment_residue_sum_oracle():
    """The plain truncated residue sum is the stated independent oracle."""
    q = f_moment_quad(-2, Z, OB)[0]
    o = f_moment_residue_oracle(-2, Z, OB)
    assert abs(q - o) < 1e-8


def test_residue_oracle_raises_on_its_term_budget():
    """|x1| = exp(-2 pi 1e-5): after 100,000 terms a term is still ~2e-3."""
    with pytest.raises(QuadratureError, match="within 100000 terms"):
        f_moment_residue_oracle(-2, 1e-5j, 1.0)


def test_moment_requires_upper_ratio():
    with pytest.raises(RegionError):
        f_moment_quad(-1, 0.3 - 0.4j, 1.0 + 0j)
    with pytest.raises(RegionError):
        f_moment_series(-1, 0.3 - 0.4j, 1.0 + 0j)


def test_moment_tilt_invariance():
    """The rotated-contour value does not depend on the rotation c inside the
    admissible window (no pole is crossed): the hull rotation, which
    f_moment_quad takes, and three other admissible rotations agree."""
    from conifoldrh.contour import choose_outer_cutoff

    lower, upper = multisine._integrand(1, Z, (OB,), -2)
    dirs = [OB, Z, OB - Z]
    c0, margin = hull_rotation(dirs)
    eps = multisine.EPS_POLE_FRACTION * 2 * math.pi / abs(OB)
    tol = DEFAULT_TOL
    vals = []
    for tilt in (0.0, -0.8, 0.4, 0.8):
        c = c0 * cmath.exp(1j * tilt * margin)
        assert all((c * d).real > 0 for d in dirs)
        R = choose_outer_cutoff(
            lambda s: upper(s) if (s * c.conjugate()).real > 0 else lower(s),
            c, eps, tol)
        vals.append(detour_integral(lower, upper, eps, R, c, tol)[0])
    assert vals[0] == f_moment_quad(-2, Z, OB)[0]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10


@pytest.mark.parametrize("order,z,w1bar", [
    (-1, -5 + 0.1j, 1),     # z and w1bar - z 0.0033 rad short of opposite
    (-2, -5 + 0.1j, 1),
    (0, 0.01 + 0.001j, 1),  # Im(z/w1bar) = 1e-3
])
def test_f_moment_quad_near_window_edge(order, z, w1bar):
    q = f_moment_quad(order, z, w1bar)[0]
    s = f_moment_series(order, z, w1bar)
    assert abs(q - s) <= 1e-10 * abs(s)


@pytest.mark.parametrize("order", [-2, -1])
def test_g_moment_quad_near_window_edge(order):
    # the directions w1, w1t, z + w1bar, w1bar - z span pi - 0.075 rad
    args = (order, -3 + 0.05j, 1 + 0j, 1 + 0.2j)
    q = g_moment_quad(*args)[0]
    s = g_moment_series(*args)
    assert abs(q - s) <= 1e-10 * abs(s)


def _li(s: int, x: complex) -> complex:
    """Li_s(x) = sum_n x^n / n^s for |x| < 1."""
    acc, n, term = 0j, 1, x
    while abs(term) > 1e-18:
        acc += term / n**s
        n += 1
        term *= x
    return acc


@pytest.mark.parametrize("order", [-2, -1, 0, 1])
def test_g_moment_at_equal_periods(order):
    """w1t = w1 = w, where the residue series refuses (w1t/w1 real) and
    g_moment takes quadrature.  There the g integrand is the w-derivative of
    the f integrand one order down, so g_k(z, w, w) = d/dw f_(k-1)(z, w)
    = (2 pi i/w)^k (-k/w Li_(1-k)(x) - (2 pi i z/w^2) Li_(-k)(x)),
    x = exp(2 pi i z/w)."""
    z, w = 0.25 + 0.45j, 1 + 0.1j
    with pytest.raises(RegionError, match="w1t/w1 not real"):
        g_moment_series(order, z, w, w)
    x = cmath.exp(2j * math.pi * z / w)
    exact = (2j * math.pi / w) ** order * (
        -order / w * _li(1 - order, x) - 2j * math.pi * z / w**2 * _li(-order, x))
    q = g_moment_quad(order, z, w, w)[0]
    assert abs(q - exact) <= 1e-10 * abs(exact)
    assert multisine.g_moment(order, z, w, w) == q


# ---------------------------------------------------------------------------
# residue lemma


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [1.0 + 0j, 1 + 0.2j, 0.7 - 0.3j])
def test_residue_lemma(d, w):
    res = residue_lemma_check(w, d)
    assert res.rel_err < 1e-8, (d, w, res.rel_err)


def test_residue_lemma_requires_right_half_plane():
    with pytest.raises(RegionError):
        residue_lemma_check(-1.0 + 0j, 2)


def test_quadrature_self_consistency():
    """Halving the tolerance at fixed inputs tightens the reported estimate
    by at least 2x (refinement stops below a fixed fraction of the budget)."""
    from conifoldrh.multisine import log_G_contour
    args = (0.2 + 0.5j, 1 + 0.1j, 0.95 - 0.07j, 30 * cmath.exp(-0.3j))
    _, e1 = log_G_contour(*args, 1e-7)
    _, e2 = log_G_contour(*args, 5e-8)
    assert e2 <= e1 / 2


def test_contour_spec_is_the_tolerance():
    """`ContourSpec(tol=x)` is `x`, so a routine called with it returns
    the bits of the same call with the float."""
    from conifoldrh.multisine import log_F_contour, log_G_contour
    tol = 1e-8
    assert ContourSpec(tol=tol) is tol
    calls = [(log_F_contour, (Z, OB, 0.4 - 0.9j)),
             (log_G_contour, (Z, W1, W1T, 0.4 - 0.9j)),
             (f_moment_quad, (-2, Z, OB)),
             (g_moment_quad, (-2, Z, W1, W1T))]
    for fn, args in calls:
        bits = [repr((v.real, v.imag, e)) for v, e in
                (fn(*args, ContourSpec(tol=tol)), fn(*args, tol))]
        assert bits[0] == bits[1], fn.__name__


def test_shift_identity_beyond_panel_budget():
    """Where log G exhausts the panel budget on the origin arc and the
    innermost half-line panel (|w2| ~ 2e3, tol 1e-8), the returned values
    still satisfy G(z + w1) / G(z) = 1 / F(z + w1bar | w1t, w2)."""
    from conifoldrh.multisine import F_value, log_G_contour
    z, w1, w1t = 0.336278 + 0.481368j, 1.199328 + 0.062274j, 1.005438 - 0.190325j
    w2 = 1928.137 * cmath.exp(-1.12475j)
    shift = (log_G_contour(z + w1, w1, w1t, w2, 1e-8)[0]
             - log_G_contour(z, w1, w1t, w2, 1e-8)[0])
    assert abs(cmath.exp(shift) * F_value(z + (w1 + w1t) / 2, w1t, w2) - 1) < 1e-8


# ---------------------------------------------------------------------------
# the one integrand


def _contour_points(zeff, omegas):
    """(form, s) at points of both half-lines (out to the far tail) and of
    the arc of the rotated detour contour of these periods, with the form
    that `detour_integral` hands each point: 1 (`upper`) on c[eps, R],
    0 (`lower`) elsewhere."""
    c, _ = hull_rotation([*omegas, zeff, sum(omegas) - zeff])
    eps = multisine.EPS_POLE_FRACTION * 2 * math.pi / max(abs(w) for w in omegas)
    radii = [eps * 1.7**j for j in range(24)]
    return ([(1, c * x) for x in radii] + [(0, -c * x) for x in radii]
            + [(0, c * eps * cmath.exp(1j * math.pi * t / 16)) for t in range(17)])


#: (z, w1bar, w2) of log F and (z, w1, w1t, w2) of log G: near-coincident
#: periods, a large |w2| and a w2 on the other side of the w1
LOG_F_POINTS = [(0.3 + 0.4j, 1 + 0.1j, 0.4 - 0.9j), (0.2 + 0.5j, 1 + 0.1j, 30 - 12j)]
LOG_G_POINTS = [(0.3 + 0.4j, 1 + 0.1j, 0.95 - 0.07j, 0.4 - 0.9j),
                (0.336278 + 0.481368j, 1.199328 + 0.062274j, 1.005438 - 0.190325j,
                 1928.137 * cmath.exp(-1.12475j)),
                (0.1 + 0.2j, 1 + 1e-6j, 1 - 1e-6j, 0.3 + 1.1j)]

#: (sign, zeff, omegas, k) of the log F and log G integrands at those points
#: and of the residue lemma's (w, w) at d = 1..4, by name
INTEGRANDS = {
    **{f"logF{i}": (1, z, (w1bar, w2), -1)
       for i, (z, w1bar, w2) in enumerate(LOG_F_POINTS)},
    **{f"logG{i}": (-1, z + (w1 + w1t) / 2, (w1, w1t, w2), -1)
       for i, (z, w1, w1t, w2) in enumerate(LOG_G_POINTS)},
    **{f"lemma-d{d}": (-1, 0.7 - 0.3j, (0.7 - 0.3j, 0.7 - 0.3j), 1 - d)
       for d in range(1, 5)},
}


@pytest.mark.parametrize("sign,zeff,omegas,k", INTEGRANDS.values(), ids=INTEGRANDS)
def test_integrand_forms_against_40_digits(sign, zeff, omegas, k):
    """Each form of `_integrand` at the points it is handed agrees with
    sign e^(zeff s) s^k / prod (e^(w s) - 1) to 40 digits within
    2 eps_mach cond, cond = 3 + m + |alpha s| + sum (1 + |b s|) |e^(b s)| /
    |e^(b s) - 1| over the m periods b of that form: the rounding of the
    exponents and the cancellation of e^(b s) - 1 near the origin, which
    every closed form carries.  Points where the value underflows below
    1e-280 in the far tail are skipped."""
    forms = multisine._integrand(sign, zeff, omegas, k)
    eps_mach = sys.float_info.epsilon
    checked = [0, 0]
    for side, s in _contour_points(zeff, omegas):
        with mpmath.workdps(40):
            ms = mpmath.mpc(s)
            den = mpmath.fprod(mpmath.exp(mpmath.mpc(w) * ms) - 1 for w in omegas)
            exact = complex(sign * mpmath.exp(mpmath.mpc(zeff) * ms) * ms**k / den)
        if abs(exact) < 1e-280:
            continue
        alpha, bs = ((zeff, omegas) if side == 0
                     else (zeff - sum(omegas), [-w for w in omegas]))
        cond = 3 + len(omegas) + abs(alpha * s) + sum(
            (1 + abs(b * s)) * abs(cmath.exp(b * s)) / abs(cmath.exp(b * s) - 1)
            for b in bs)
        err = abs(forms[side](s) - exact)
        assert err <= 2 * eps_mach * cond * abs(exact), (side, s)
        checked[side] += 1
    assert min(checked) >= 10


@pytest.mark.parametrize("omegas,exps", [
    ((0.7 - 0.3j, 0.7 - 0.3j), 2),
    ((1 + 0.1j, 1 + 0.1j, 0.4 - 0.9j), 3),
    ((1 + 0.1j, 0.95 - 0.07j, 0.4 - 0.9j), 4),
])
def test_each_distinct_period_takes_one_exponential(monkeypatch, omegas, exps):
    """A repeated (w, w) takes one `cmath.exp` for both its factors: with
    the numerator's, an evaluation of either form makes one call more than
    it has distinct periods."""
    calls = []
    real = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda x: calls.append(x) or real(x))
    for f in multisine._integrand(-1, 0.3 + 0.4j, omegas, -1):
        for s in (0.8 - 0.1j, -0.8 + 0.1j):
            calls.clear()
            f(s)
            assert len(calls) == exps
