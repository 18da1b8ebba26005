"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Tolerances are pinned here, not configurable.
"""

import cmath
import json
import math
import random
import time

from conifoldrh import multisine, qtorus, rhsolver
from conifoldrh.cli import main as cli_main
from conifoldrh.lattice import (BETA, BETA_V, DELTA, DELTA_V, conifold_bps)
from conifoldrh.multisine import (F_product, F_star, log_F_contour,
                                  log_G_cached, log_G_star, reflection_rhs_F,
                                  reflection_rhs_G, residue_lemma_check)
from conifoldrh.rhsolver import SolutionPoint

V, W = 0.30 + 0.40j, 1.0 + 0j
T0, TAU0 = -0.20 - 0.70j, 0.15j            # CLI default point
STRUCTURE = conifold_bps(V, W)


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_exact_algebra():
    """N = 6, K = 24: conjugation equals the closed form identically on every
    conifold ray ell_0..ell_4 and ell_inf, for gamma in {b^, d^, b, d}."""
    t0 = time.monotonic()
    N, K = 6, 24
    gammas = (BETA_V, DELTA_V, BETA, DELTA)
    rays = [qtorus.conifold_ray_charges("ell_n", n) for n in range(5)]
    rays.append(qtorus.conifold_ray_charges("ell_inf", kmax=N))
    checked = 0
    for ray in rays:
        for g in gammas:
            res = qtorus.bps_automorphism(STRUCTURE, ray, g, N, K)
            assert res.element == res.closed_form
            checked += 1
    elapsed = time.monotonic() - t0
    _report(1, checked == 24 and elapsed < 30,
            f"{checked} exact automorphism identities, zero residual, "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_02_sector_composition():
    t0 = time.monotonic()
    ok = True
    for g in (BETA_V, DELTA_V):
        direct = qtorus.sector_closed_form(g, 2, 2, 24)
        composed = qtorus.sector_from_rays(STRUCTURE, g, 2, 2, 24)
        ok = ok and (direct == composed)
    elapsed = time.monotonic() - t0
    _report(2, ok and elapsed < 60,
            f"sector automorphism matches ray composition at bidegree (2,2) "
            f"exactly, {elapsed:.1f}s (< 60s)")


def _admissible_overlap_points(count: int):
    rng = random.Random(41)
    pts = []
    while len(pts) < count:
        w1bar = rng.uniform(0.8, 1.2) * cmath.exp(1j * rng.uniform(0.05, 0.45))
        w2 = rng.uniform(0.5, 1.2) * cmath.exp(1j * rng.uniform(-1.2, -0.5))
        z = rng.uniform(0.15, 0.8) * w1bar + rng.uniform(0.15, 0.8) * w2
        if (w1bar / w2).imag > 0.05:
            pts.append((z, w1bar, w2))
    return pts


def test_criterion_03_cross_representation():
    t0 = time.monotonic()
    worst = 0.0
    pts = _admissible_overlap_points(20)
    for z, w1bar, w2 in pts:
        lf, _ = log_F_contour(z, w1bar, w2, 1e-12)
        fp = F_product(z, w1bar, w2, tol=1e-14)
        worst = max(worst, abs(cmath.exp(lf) - fp) / abs(fp))
    elapsed = time.monotonic() - t0
    _report(3, worst < 1e-8 and elapsed < 60,
            f"contour vs product at {len(pts)} points, worst rel "
            f"{worst:.2e} (< 1e-8), {elapsed:.1f}s (< 60s)")


def _identity_grid_points(count: int):
    rng = random.Random(42)
    pts = []
    while len(pts) < count:
        w1 = 1 + complex(rng.uniform(0.02, 0.2), rng.uniform(0.05, 0.25))
        w1t = 1 + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.22, -0.04))
        w2 = cmath.exp(1j * rng.uniform(-1.25, -0.7)) * rng.uniform(0.6, 1.1)
        z = 0.25 + complex(rng.uniform(-0.05, 0.1), rng.uniform(0.35, 0.6))
        dw = (w1 - w1t) / 2
        if all(((z / w1).imag > 0.02, (z / w1t).imag > 0.02,
                (dw / w1).imag > 0.02, (dw / w1t).imag > 0.02,
                (w1 / w2).imag > 0.05, (w1t / w2).imag > 0.05,
                # shifted arguments of the starred difference relations must
                # stay inside the moment region
                ((z + w1t) / w1).imag > 0.02, ((z + w1) / w1t).imag > 0.02)):
            pts.append((z, w1, w1t, w2))
    return pts


def test_criterion_04_identity_grid():
    tol = 1e-8
    worst: dict[str, float] = {}

    def see(name, lhs, rhs):
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        worst[name] = max(worst.get(name, 0.0), rel)

    for z, w1, w1t, w2 in _identity_grid_points(10):
        ob, dw = (w1 + w1t) / 2, (w1 - w1t) / 2
        x1 = cmath.exp(2j * math.pi * z / ob)
        x2 = cmath.exp(2j * math.pi * z / w2)
        Fv = multisine.F_value
        see("difF_w1bar", Fv(z + ob, ob, w2) / Fv(z, ob, w2), 1 / (1 - x2))
        see("difF_w2", Fv(z + w2, ob, w2) / Fv(z, ob, w2), 1 / (1 - x1))
        lg = log_G_cached(z, w1, w1t, w2)[0]
        see("difG1", cmath.exp(log_G_cached(z + w1, w1, w1t, w2)[0] - lg),
            1 / Fv(z + ob, w1t, w2))
        see("difG2", cmath.exp(log_G_cached(z + w1t, w1, w1t, w2)[0] - lg),
            1 / Fv(z + ob, w1, w2))
        see("diffF", F_star(z + ob, ob, w2) / F_star(z, ob, w2), 1 / (1 - x2))
        lgs = log_G_star(z, w1, w1t, w2)
        see("diffG1", cmath.exp(log_G_star(z + w1, w1, w1t, w2) - lgs),
            1 / F_star(z + ob, w1t, w2))
        see("diffG2", cmath.exp(log_G_star(z + w1t, w1, w1t, w2) - lgs),
            1 / F_star(z + ob, w1, w2))
        see("FF1", Fv(z + w2, ob, w2) * Fv(z, ob, -w2),
            reflection_rhs_F(z, w1, w1t, w2))
        see("GG1", cmath.exp(log_G_cached(z + w2, w1, w1t, w2)[0]
                             + log_G_cached(z, w1, w1t, -w2)[0]),
            reflection_rhs_G(z, w1, w1t, w2))
        see("FF2", F_star(z, ob, w2) * F_star(z, ob, -w2),
            reflection_rhs_F(z, w1, w1t, w2))
        see("GG2", cmath.exp(log_G_star(z, w1, w1t, w2)
                             + log_G_star(z, w1, w1t, -w2)),
            reflection_rhs_G(z, w1, w1t, w2)
            / reflection_rhs_G(dw, w1, w1t, w2))
    bad = {k: v for k, v in worst.items() if v >= tol}
    _report(4, not bad,
            "difference+reflection identities at 10 points each, worst rel "
            f"{max(worst.values()):.2e} (< 1e-8)" + (f"; FAILED {bad}" if bad else ""))


def test_criterion_05_residue_lemma():
    worst = 0.0
    for d in (1, 2, 3, 4):
        for w in (1.0 + 0j, 1 + 0.2j, 0.7 - 0.3j):
            res = residue_lemma_check(w, d)
            worst = max(worst, res.rel_err)
    _report(5, worst < 1e-8,
            f"residue lemma d in 1..4, three omegas, worst rel {worst:.2e} (< 1e-8)")


def test_criterion_06_asymptotics():
    z, ob = 0.3 + 0.4j, 1 + 0.05j
    w1, w1t = 1 + 0.1j, 0.95 - 0.07j
    ok = True
    details = []
    for K in (1, 2, 4):
        for mode, zz, pars in (("F", z, (ob,)), ("G", 0.25 + 0.45j, (w1, w1t))):
            r = multisine.asymptotic_order_small_w2(mode, zz, pars, K,
                                                    w2_dir=cmath.exp(-0.2j))
            # remainder order is the next non-vanishing term, to within
            # order - 0.2 order/(order + 0.2) < slope < order + 0.2:
            # K for K = 1, and K + 1 for K = 2, 4 because the odd Bernoulli
            # numbers B_3 and B_5 vanish
            ok = ok and r.passed
            details.append(f"{mode} K={K}: slope {r.lhs.real:.2f}")
    rows = {r.name: r for r in
            [*multisine.asymptotic_infinity_fit("F", z, (ob,), cmath.exp(-0.3j)),
             *multisine.asymptotic_infinity_fit("G", 0.2 + 0.5j, (w1, w1t),
                                                cmath.exp(-0.3j))]}
    coeffs = {"F linear (-pi i/12/w1bar)": rows["F infinity coefficient (linear)"],
              "G quadratic (zeta3 B02/4pi^2)": rows["G infinity coefficient (quadratic)"],
              "G log (-B22/2)": rows["G infinity coefficient (log)"]}
    ok = ok and all(r.passed and r.tol == 1e-4 for r in coeffs.values())
    _report(6, ok, "; ".join(details) + "; infinity coefficients rel " +
            ", ".join(f"{k}={r.rel_err:.1e}" for k, r in coeffs.items()) + " (< 1e-4)")


def test_criterion_07_wallcrossing_and_reflection():
    p0 = SolutionPoint(V, W, T0, TAU0, 0)
    worst = 0.0
    for n in (0, 1, 2, 3):
        worst = max(worst, rhsolver.wallcross_B(p0.shifted(n)).rel_err)
        worst = max(worst, rhsolver.wallcross_D(p0.shifted(n)).rel_err)
    p_iv = SolutionPoint(V, W, 0.20 + 0.70j, 0.15 * cmath.exp(1.9j), 0)
    rb = rhsolver.reflection_B(p_iv)
    rd = rhsolver.reflection_D(p_iv)
    worst_iv = max(rb.rel_err, rd.rel_err)
    _report(7, worst < 1e-8 and worst_iv < 1e-8,
            f"wall-crossing n=0..3 at default point worst rel {worst:.2e}; "
            f"B0/D0 reflection worst rel {worst_iv:.2e} (< 1e-8)")


def test_criterion_08_qrh_limits():
    t_sw = 0.8 * cmath.exp(1j * (math.pi - 0.5))
    tau_sw = 0.15 * cmath.exp(1.2j)
    worst = 0.0
    for n in (0, 1, 2):
        p = SolutionPoint(V, W, t_sw, tau_sw, n)
        worst = max(worst, rhsolver.qrh2_limit(p, rhsolver.SOLUTIONS["B"]).rel_err)
        worst = max(worst, rhsolver.qrh2_limit(p, rhsolver.SOLUTIONS["D"]).rel_err)
    growths = []
    ok = worst < 1e-6
    for which in ("B", "D"):
        g = rhsolver.check_qrh3_growth(
            SolutionPoint(V, W, t_sw, tau_sw, 1), rhsolver.SOLUTIONS[which])
        growths.append(f"{which}: k={g.meta['exponent']:.3f}")
        ok = ok and g.passed
    _report(8, ok,
            f"t->0 limits equal 1 within {worst:.2e} (< 1e-6); growth "
            "exponents " + ", ".join(growths) + " (finite)")


def test_criterion_09_cs_match():
    base = [(0.20 + 0.70j, 0.15 * cmath.exp(1.9j), 0.30 + 0.40j),
            (0.15 + 0.60j, 0.12 * cmath.exp(2.0j), 0.25 + 0.35j),
            (0.25 + 0.80j, 0.18 * cmath.exp(1.95j), 0.35 + 0.45j),
            (0.10 + 0.55j, 0.10 * cmath.exp(2.1j), 0.20 + 0.30j),
            (0.30 + 0.65j, 0.20 * cmath.exp(2.1j), 0.28 + 0.42j)]
    worst = 0.0
    for t, tau, v in base:
        p = rhsolver.cs_point(t, tau, v)
        assert all(q.ok for q in rhsolver.d_predicates(p)), \
            f"CS point {t} not admissible"
        worst = max(worst, rhsolver.cs_match_residual(p).rel_err)
    _report(9, worst < 1e-8,
            f"sin_3 ratio vs prefactor-adjusted D_0 at 5 admissible points, "
            f"worst rel {worst:.2e} (< 1e-8)")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        multisine.clear_caches()    # the second run recomputes, not replays
        path = tmp_path / name
        code = cli_main(["verify", "--suite", "all", "--out", str(path)])
        assert code == 0, "verify all must pass"
        outs.append(json.loads(path.read_text()))
    same = _strip_timing(outs[0]) == _strip_timing(outs[1])
    _report(10, same, "verify all twice: JSON identical excluding timing")
