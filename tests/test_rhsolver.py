import cmath
import math
import os

import mpmath
import pytest

from conifoldrh import cli
from conifoldrh.contour import QuadratureError
from conifoldrh.lattice import BETA_V, DELTA_V, RegionError
from conifoldrh.multisine import (fit_loglog_slope, g_moment_quad, log_F_star,
                                  log_G_star, reflection_rhs_F, reflection_rhs_G)
from conifoldrh import rhsolver
from conifoldrh.rhsolver import (SOLUTIONS, SolutionPoint, b_predicates,
                                 check_qrh3_growth, cs_match_residual,
                                 cs_point, d_predicates, default_tau_grid,
                                 jump, log_D_n, along_ray,
                                 qrh2_limit, reflection_B, reflection_D,
                                 reflection_B_rhs, reflection_D_rhs,
                                 refined_cs_partition,
                                 region_neighborhood_tau, richardson_limit,
                                 wallcross_B, wallcross_D)

V, W = 0.30 + 0.40j, 1.0 + 0j
# default CLI point; its t sits between ell(-2) and ell(-1), so the n >= 0
# half-plane predicates fail there while every evaluation still converges
T0, TAU0 = -0.20 - 0.70j, 0.15j
P0 = SolutionPoint(V, W, T0, TAU0, 0)

# a fully admissible configuration (all defining-formula predicates hold)
T_IV, TAU_IV = 0.20 + 0.70j, 0.15 * cmath.exp(1.9j)
P_IV = SolutionPoint(V, W, T_IV, TAU_IV, 0)

# admissible sweep data for the t -> 0 / t -> infinity checks
T_SW = 0.8 * cmath.exp(1j * (math.pi - 0.5))
TAU_SW = 0.15 * cmath.exp(1.2j)
P_SW = SolutionPoint(V, W, T_SW, TAU_SW, 0)

# a second stability point, with non-real w
P_2ND = SolutionPoint(0.22 + 0.61j, 0.9 - 0.15j, -0.3 - 0.8j, 0.12j, 0)

# the negative-sector probe point, where D_(-1)'s checklist holds
P_NEG = SolutionPoint(V, W, -0.9 + 0.3j, 0.15j, 0)


def test_solution_point_derived():
    assert abs(P0.x - cmath.exp(-2j * math.pi * V / T0)) < 1e-15
    assert abs(P0.y - cmath.exp(-2j * math.pi * W / T0)) < 1e-15


def test_predicate_checklists():
    names = [q.name for q in b_predicates(P0)]
    assert names == ["Im((v+0w)/w) > 0", "Im((v+0w)/(-t)) > 0"]
    d = d_predicates(P_IV._replace(n=2))
    assert all(q.ok for q in d)
    assert sum(q.name.startswith("Im(zB") for q in d) == 4  # two per B factor


def test_region_error_names_predicate_kind():
    with pytest.raises(RegionError) as exc:
        SOLUTIONS["B"].value(P0)
    assert "t half-plane" in str(exc.value)
    assert "Im((v+0w)/(-t)) > 0" in str(exc.value)
    bad_tau = SolutionPoint(V, W, T_IV, 0.15j, 0)   # tau-moments diverge here
    with pytest.raises(RegionError) as exc:
        SOLUTIONS["D"].value(bad_tau)
    assert "tau-neighborhood" in str(exc.value)


def test_B_fully_admissible_point():
    assert all(q.ok for q in b_predicates(P_IV))
    val = SOLUTIONS["B"].value(P_IV)     # b_predicates hold, so B_n passes its check
    assert val != 0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_wallcrossing_at_default_point(n):
    rb = wallcross_B(P0._replace(n=n))
    assert rb.rel_err < 1e-8
    rd = wallcross_D(P0._replace(n=n))
    assert rd.rel_err < 1e-8


def test_wallcrossing_at_admissible_point():
    rb = wallcross_B(P_IV)
    rd = wallcross_D(P_IV)
    assert rb.rel_err < 1e-8 and rd.rel_err < 1e-8


def test_wallcrossing_second_stability_point():
    """Nothing is tuned to the default (v, w): the jumps close at another
    stability point with non-real w."""
    for n in range(3):
        assert wallcross_B(P_2ND._replace(n=n)).rel_err < 1e-8
        assert wallcross_D(P_2ND._replace(n=n)).rel_err < 1e-8


@pytest.mark.parametrize("p", [P0, P_NEG], ids=["default", "probe"])
@pytest.mark.parametrize("n", [-2, -1])
def test_wallcrossing_negative_sectors(p, n):
    """D_(n+1)/D_n closes against the ell_n jump for n < 0 too, where D_n
    divides by its B_0 factors."""
    assert wallcross_B(p._replace(n=n)).rel_err < 1e-8
    assert wallcross_D(p._replace(n=n)).rel_err < 1e-8


def test_D_minus_one_at_the_probe_point():
    """eval --target Dn --param n=-1 --param t=-0.9+0.3i --param tau=0.15i:
    D_(-1) = D_0 / jump(ell_(-1)) on delta_v, about 1.094696+0.336209i."""
    p = P_NEG._replace(n=-1)
    want = cmath.exp(log_D_n(P_NEG)) / jump(p, DELTA_V)
    got = SOLUTIONS["D"].value(p)
    assert abs(got - want) <= 1e-8 * abs(want)
    assert abs(got - (1.094696 + 0.336209j)) < 1e-6


def test_d_predicates_list_the_divisor_factor():
    """At n = -1 the checklist holds the F* checklist of D_(-1)'s one B_0
    divisor."""
    names = [q.name for q in d_predicates(P_NEG._replace(n=-1))]
    assert "Im(zB0/(w+t*tau/2)) > 0" in names
    assert "Im(zB0/(-t)) > 0" in names


# each path that evaluates a solution, called for one letter
_SOLUTION_PATHS = {
    "along_ray": lambda which: along_ray(P_SW, SOLUTIONS[which], [0.8]),
    "wallcross": lambda which: {"B": wallcross_B, "D": wallcross_D}[which](P0),
    "qrh2_limit": lambda which: qrh2_limit(P_SW, SOLUTIONS[which]),
    "value": lambda which: SOLUTIONS[which].value(P_IV),
    "eval": lambda which: cli.main(
        ["eval", "--target", f"{which}n", "--param", "t=0.2+0.7i", "--param", "n=1",
         *(["--param", "tau=-0.049+0.142i"] if which == "D" else []),
         "--out", os.devnull]),
    "sweep": lambda which: cli.main(
        ["sweep", "--target", f"growth-{which}", "--sweep", "t:0.8:2:2",
         "--param", "t=-0.877583+0.479426i", "--param", "tau=0.054354+0.139806i",
         "--out", os.devnull]),
}


@pytest.mark.parametrize("path", list(_SOLUTION_PATHS))
def test_solutions_call_the_module_log_forms(path, monkeypatch):
    """Each path reaches log_B_n and log_D_n through their module bindings,
    where a wrapper installed on `rhsolver` (as the benchmark's tracer
    installs one) sees the call: B's path calls the wrapped log_B_n only,
    D's the wrapped log_D_n only."""
    calls = {"B": 0, "D": 0}

    def counting(which, log_x):
        def wrapped(p):
            calls[which] += 1
            return log_x(p)
        return wrapped

    monkeypatch.setattr(rhsolver, "log_B_n", counting("B", rhsolver.log_B_n))
    monkeypatch.setattr(rhsolver, "log_D_n", counting("D", rhsolver.log_D_n))
    _SOLUTION_PATHS[path]("B")
    assert calls["B"] > 0 and calls["D"] == 0
    _SOLUTION_PATHS[path]("D")
    assert calls["D"] > 0


@pytest.mark.parametrize("p", [P0, P_2ND], ids=["default", "second"])
def test_jump_pairs_B_with_beta_v_and_D_with_delta_v(p):
    """The ray ell_n factors on beta_v are B's jump, 1/(1 - x y^n), and those
    on delta_v are D's, prod_k 1/(1 - q^((1-n+2k)/2) x y^n), k = 0..n-1: the
    closed forms the factors replaced, written out here as the oracle.  At
    n = 0 delta_v pairs to zero with beta, so D's jump is 1; at n = 1 the two
    jumps coincide, and from n = 2 on they differ."""
    q_half = cmath.exp(1j * math.pi * p.tau)
    for n in range(6):
        pn = p._replace(n=n)
        xyn = pn.x * pn.y**n
        jump_b = 1 / (1 - xyn)
        jump_d = math.prod(1 / (1 - q_half ** (1 - n + 2 * k) * xyn) for k in range(n))
        assert abs(jump(pn, BETA_V) - jump_b) <= 1e-13 * abs(jump_b)
        assert abs(jump(pn, DELTA_V) - jump_d) <= 1e-13 * abs(jump_d)


def test_log_D_n_skips_the_tau_predicates():
    """On the growth-D sweep ray t = -0.755+0.655i at tau = 0.054+0.140i,
    |t| = 32 fails the tau predicate Im(z0/(w+t*tau/2)) > 0.  D_n and the
    g moment quadrature refuse the point, but the continuation log_D_n
    returns a finite value, since the moments take their residue series
    there."""
    t = 32 * (-0.755 + 0.655j) / abs(-0.755 + 0.655j)
    p = SolutionPoint(V, W, t, 0.054 + 0.140j, 0)
    assert [(q.name, q.kind) for q in d_predicates(p) if not q.ok] == [
        ("Im(z0/(w+t*tau/2)) > 0", "tau")]
    with pytest.raises(RegionError, match="outside tau-neighborhood"):
        SOLUTIONS["D"].value(p)
    w1, w1t = W - t * p.tau / 2, W + t * p.tau / 2
    with pytest.raises(RegionError):
        g_moment_quad(-2, V, w1, w1t)
    assert cmath.isfinite(log_D_n(p))


def test_D1_argument_plumbing():
    """D_1 = D_0(v + w - t tau/2, w, t) * B_0(v + w, w + t tau/2, t) literally."""
    p = P_IV._replace(n=1)
    tt2 = p.t * p.tau / 2
    manual = (log_G_star(V + W - tt2, W - tt2, W + tt2, -p.t)
              + log_F_star(V + W, W + tt2, -p.t))
    assert abs(cmath.exp(log_D_n(p)) - cmath.exp(manual)) < 1e-10 * abs(cmath.exp(manual))


def test_reflection_identities():
    rb = reflection_B(P_IV)
    rd = reflection_D(P_IV)
    assert rb.rel_err < 1e-8
    assert rd.rel_err < 1e-8


def _mp_qp2(u, a, b):
    """prod_(i,j>=0) (1 - u a^j b^i) = prod_i qp(u b^i, a) from mpmath's
    q-Pochhammer qp(u, q) = prod_(k>=0) (1 - u q^k), to 45 digits."""
    out = mpmath.mpc(1)
    while abs(u) > mpmath.mpf(10) ** -45:
        out *= mpmath.qp(u, a)
        u *= b
    return out


def _mp_reflection_rhs(which: str, p: SolutionPoint):
    """The B or D reflection product at 40 digits, in x, y and q^(1/2)."""
    x, y, qh = (mpmath.mpc(c) for c in (p.x, p.y, cmath.exp(1j * math.pi * p.tau)))
    if which == "B":
        return mpmath.qp(x, y) / mpmath.qp(y / x, y)
    a, b = qh * y, y / qh
    return (_mp_qp2(x * y, a, b) * _mp_qp2(y / x, a, b)
            / (_mp_qp2(a, a, b) * _mp_qp2(b, a, b)))


@pytest.mark.parametrize("which", ["B", "D"])
def test_reflection_rhs_keeps_its_digits(which):
    """At the reflection suite's point each product's truncated tail stays
    below double rounding: 1e-15 relative to a 40-digit mpmath product."""
    rhs = {"B": reflection_B_rhs, "D": reflection_D_rhs}[which]
    with mpmath.workdps(40):
        want = _mp_reflection_rhs(which, P_IV)
        assert abs(rhs(P_IV) - want) / abs(want) < 1e-15


@pytest.mark.parametrize("i", range(3))
def test_reflection_products_keep_their_digits(i):
    """At the difference suite's points the F and G reflection products stay
    within 1e-14 relative of 40-digit mpmath products."""
    z, w1, w1t, w2 = cli._difference_points(3)[i]
    with mpmath.workdps(40):
        mz, m1, m1t, m2 = (mpmath.mpc(c) for c in (z, w1, w1t, w2))

        def nome(s):
            return mpmath.exp(2j * mpmath.pi * s / m2)

        x2, p = nome(mz), nome((m1 + m1t) / 2)
        a, b = nome(m1), nome(m1t)
        want = {"F": mpmath.qp(x2, p) / mpmath.qp(p / x2, p),
                "G": _mp_qp2(x2 * p, a, b) * _mp_qp2(p / x2, a, b)}
        got = {"F": reflection_rhs_F(z, w1, w1t, w2),
               "G": reflection_rhs_G(z, w1, w1t, w2)}
        for name in want:
            assert abs(got[name] - want[name]) / abs(want[name]) < 1e-14, name


def test_reflection_refuses_a_nome_at_the_margin():
    """|y| = 1 - 1e-13 lies inside the unit circle but within the 1e-12
    margin of reflection_predicates: both products refuse the point
    (RegionError) instead of running out of factors (QuadratureError).  A
    real tau gives |q^(1/2)| = 1, so the D nomes y q^(+-1/2) sit there too."""
    t = 1 / complex(1, math.log1p(-1e-13) / (2 * math.pi))
    p = SolutionPoint(V, W, t, 0.1, 0)
    assert 0 < 1 - abs(p.y) < 1e-12
    for rhs in (reflection_B_rhs, reflection_D_rhs):
        with pytest.raises(RegionError):
            rhs(p)


def test_reflection_D_reports_exhausted_budget():
    # |y| |q^(-1/2)| = 1 - 1e-5: one row of the double q-product needs ~5e6
    # factors at the default tol 1e-15, beyond MAX_FACTORS, so it raises
    # instead of returning a truncation
    y = SolutionPoint(V, W, 2 + 0.2j, 0.08j, 0).y
    p = SolutionPoint(V, W, 2 + 0.2j, 1j * (-math.log(abs(y)) - 1e-5) / math.pi, 0)
    assert 1 - 2e-5 < abs(p.y) / abs(cmath.exp(1j * math.pi * p.tau)) < 1
    with pytest.raises(QuadratureError, match="not converged within 200000 factors"):
        reflection_D_rhs(p)


def test_reflection_D_rhs_matches_order_by_order_product():
    """Where |y| |q^(-1/2)| = 0.942 the double q-product agrees with the
    defining product over n >= 1, k < n taken to n = 700."""
    p = SolutionPoint(V, W, 2 + 0.2j, 0.08j, 0)
    x, y, qh = p.x, p.y, cmath.exp(1j * math.pi * p.tau)
    direct = 1 + 0j
    for n in range(1, 701):
        yn = y**n
        for k in range(n):
            qpow = qh ** (1 - n + 2 * k)
            direct *= (1 - qpow * x * yn) * (1 - qpow / x * yn)
            direct /= (1 - qpow * qh * yn) * (1 - qpow / qh * yn)
    assert abs(reflection_D_rhs(p) / direct - 1) < 1e-11


def test_reflection_needs_lower_y():
    with pytest.raises(RegionError):
        reflection_B(P0)    # |y| > 1 on this side


def test_richardson_table():
    # f(h) = 1 + 3h + 2h^2: three levels kill both corrections
    vals = [1 + 3 * (0.5**j) + 2 * (0.5**j) ** 2 for j in range(6)]
    assert abs(richardson_limit(vals) - 1) < 1e-12


def test_qrh2_limits():
    rb = qrh2_limit(P_SW, SOLUTIONS["B"])
    rd = qrh2_limit(P_SW, SOLUTIONS["D"])
    assert rb.rel_err < 1e-6 and rb.passed
    assert rd.rel_err < 1e-6 and rd.passed


def test_growth_fit_trivial_constant():
    slope, dev = fit_loglog_slope([1.0, 2.0, 4.0, 8.0], [1.0, 1.0, 1.0, 1.0])
    assert abs(slope) < 1e-12 and dev < 1e-12


def test_qrh3_growth_finite():
    g = check_qrh3_growth(P_SW._replace(n=1), SOLUTIONS["B"])
    assert g.passed and g.name == "qrh3 growth exponent finite (B)"
    # B_n ~ |t|^Re(B_1(z/w)) up to O(1): exponent near Re((v+nw)/w) - 1/2
    expect = ((V + W) / W).real - 0.5
    assert abs(g.meta["exponent"] - expect) < 0.25


def test_region_neighborhood_tau():
    rep = region_neighborhood_tau(V, W, T_IV, 0)
    assert rep["n_admissible"] > 0
    # purely imaginary small tau is inadmissible here (the dw-moment flips),
    # while a tau rotated past arg(-1/t) is admissible
    ok_args = {cmath.phase(t) for t in rep["admissible"]}
    assert all(a > 0 for a in ok_args)
    # Im(tau) <= 0 is never admissible
    p = SolutionPoint(V, W, T_IV, -0.1j, 0)
    assert not all(q.ok for q in d_predicates(p))
    names = [q.name for q in d_predicates(p) if not q.ok]
    assert "Im(tau/2) > 0" in names
    # tau large enough that w + t tau/2 leaves the half-plane of v flips the
    # corresponding predicate, reported by name
    tau_big = 5.6 * cmath.exp(1j * (math.pi - cmath.phase(T_IV)))
    p = SolutionPoint(V, W, T_IV, tau_big, 0)
    bad = [q.name for q in d_predicates(p) if not q.ok]
    assert "Im(z0/(w+t*tau/2)) > 0" in bad


def test_region_grid_shape():
    grid = default_tau_grid()
    assert len(grid) == 4 * 23
    assert all(t.imag > 0 for t in grid)


def test_cs_partition_beta_one():
    z1 = refined_cs_partition(1.2 + 0.4j, 0.8 + 0.3j, 1.0 + 0j)
    assert cmath.isfinite(z1)


def test_cs_match_point():
    p = cs_point(0.20 + 0.70j, 0.15 * cmath.exp(1.9j), 0.30 + 0.40j)
    assert abs((p.w - p.t * p.tau / 2) * (p.w + p.t * p.tau / 2) - 1) < 1e-12
    r = cs_match_residual(p)
    assert r.rel_err < 1e-8


def test_cs_match_off_locus_rejected():
    with pytest.raises(RegionError):
        cs_match_residual(SolutionPoint(V, 1.3 + 0j, T_IV, TAU_IV, 0))
