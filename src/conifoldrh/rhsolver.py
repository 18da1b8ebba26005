"""Solution functions of the conifold quantum Riemann-Hilbert problem.

The electric jump data is solved by

    B_0(v, w, t)        = F*(v | w, -t)
    D_0(v, w, t, tau)   = G*(v | w - t tau/2, w + t tau/2, -t)
    B_n = B_0(v + n w, w, t)
    D_n = D_0(v + n w - n t tau/2, w, t)
          * prod_{k=0}^{m-1} B_0(v + n w + (1-m+2k) t tau/2, w + t tau/2, t)^s

for every n in Z, m = |n|, s = sign(n), with q^(1/2) = exp(pi i tau).
`SOLUTIONS` holds each family's log form, checklist of region predicates and
charge: `Solution.value` requires the checklist and raises on a violation,
while log_B_n and log_D_n are the analytic continuation and check none.
The identity suites and the sweeps evaluate the logs, since the
wall-crossing and reflection relations are relations between the continued
functions.  The tau-neighborhood predicates (those involving t tau/2) are
the convergence conditions of the moment integrals.  Only a moment's
quadrature checks its own; a moment that takes its residue series does
not, so log_D_n returns a value where they fail.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

from .bernoulli import multiple_bernoulli
from .checks import Predicate, Residual, im_ratio_predicate, require
from .contour import DEFAULT_TOL
from .lattice import BETA_V, DELTA_V, ChargeVector, mplus_predicates
from .multisine import (TWO_PI_I, F_star, G_star, fit_loglog_slope, log_F_star,
                        log_G_star, log_G_cached, q_G, reflection_rhs_F,
                        reflection_rhs_G)

#: tolerance of the t -> 0 limits of B_n and D_n
QRH2_TOL = 1e-6


class SolutionPoint(NamedTuple):
    """Stability data (v, w), BPS t-plane coordinate, quantum parameter tau,
    and the sector index n."""

    v: complex
    w: complex
    t: complex
    tau: complex
    n: int = 0

    @property
    def x(self) -> complex:
        return cmath.exp(-TWO_PI_I * self.v / self.t)

    @property
    def y(self) -> complex:
        return cmath.exp(-TWO_PI_I * self.w / self.t)


# ---------------------------------------------------------------------------
# predicate checklists


def b_predicates(p: SolutionPoint) -> list[Predicate]:
    """Conditions for the defining formula of B_n: Im((v+nw)/w) > 0 and
    Im((v+nw)/(-t)) > 0 (the t half-plane condition)."""
    z = p.v + p.n * p.w
    return [
        im_ratio_predicate(f"(v+{p.n}w)/w", z, p.w),
        im_ratio_predicate(f"(v+{p.n}w)/(-t)", z, -p.t, kind="half-plane"),
    ]


def _d_arguments(p: SolutionPoint) -> tuple[complex, complex, complex, complex,
                                              list[complex]]:
    """D_n's arguments: t tau/2, the pair (w - t tau/2, w + t tau/2), the G*
    argument z0 = v + n w - n t tau/2 and the B_0 arguments
    zk = v + n w + (1-m+2k) t tau/2, k = 0..m-1, m = |n|."""
    n, m, tt2 = p.n, abs(p.n), p.t * p.tau / 2
    zks = [p.v + n * p.w + (1 - m + 2 * k) * tt2 for k in range(m)]
    return tt2, p.w - tt2, p.w + tt2, p.v + n * p.w - n * tt2, zks


def d_predicates(p: SolutionPoint) -> list[Predicate]:
    """Full checklist for D_n, covering the G* factor at the shifted argument
    and every B_0 factor of the product formula, a multiplier for n > 0 and
    a divisor for n < 0."""
    tt2, w1, w1t, z0, zks = _d_arguments(p)
    preds = [
        Predicate("Im(tau/2) > 0", (p.tau / 2).imag, kind="tau"),
        im_ratio_predicate("z0/(w-t*tau/2)", z0, w1, kind="tau"),
        im_ratio_predicate("z0/(w+t*tau/2)", z0, w1t, kind="tau"),
        im_ratio_predicate("z0/(-t)", z0, -p.t, kind="half-plane"),
        im_ratio_predicate("(-t*tau/2)/(w-t*tau/2)", -tt2, w1, kind="tau"),
        im_ratio_predicate("(-t*tau/2)/(w+t*tau/2)", -tt2, w1t, kind="tau"),
    ]
    for k, zk in enumerate(zks):
        preds.append(im_ratio_predicate(f"zB{k}/(w+t*tau/2)", zk, w1t, kind="tau"))
        preds.append(im_ratio_predicate(f"zB{k}/(-t)", zk, -p.t, kind="half-plane"))
    return preds


# ---------------------------------------------------------------------------
# B_n and D_n


def log_B_n(p: SolutionPoint) -> complex:
    """log B_n = log F*(v + n w | w, -t), the continuation: it checks no
    predicate."""
    return log_F_star(p.v + p.n * p.w, p.w, -p.t)


def log_D_n(p: SolutionPoint) -> complex:
    """log D_n per the shifted-argument product formula: the continuation.

    It checks none of d_predicates: neither the t half-plane conditions,
    under which the value continues analytically, nor the tau-neighborhood
    conditions, the convergence conditions of the moment integrals.  Only a
    moment's quadrature checks its own (Im(z/w1) > 0 and Im(z/w1t) > 0 for
    a g moment); a moment that takes its residue series does not, so a
    value is returned where a tau predicate fails, as from |t| = 32 on the
    growth-D sweep ray t = -0.755+0.655i at tau = 0.054+0.140i.
    """
    _, w1, w1t, z0, zks = _d_arguments(p)
    sign = 1 if p.n > 0 else -1
    total = log_G_star(z0, w1, w1t, -p.t)
    for zk in zks:
        # B_0(zk, w + t tau/2, t) = F*(zk | w + t tau/2, -t), to the power sign(n)
        total += sign * log_F_star(zk, w1t, -p.t)
    return total


class Solution(NamedTuple):
    """A family: its letter, log form, checklist and the charge of its jumps."""

    name: str
    log: Callable[[SolutionPoint], complex]
    predicates: Callable[[SolutionPoint], list[Predicate]]
    gamma_m: ChargeVector

    def value(self, p: SolutionPoint) -> complex:
        """The solution where its checklist holds, else RegionError."""
        require(self.predicates(p), f"{self.name}_{p.n}")
        return cmath.exp(self.log(p))


#: letter -> solution.  Each log form is called through its module binding:
#: a wrapper installed on rhsolver.log_B_n or log_D_n then sees every call.
SOLUTIONS = {
    "B": Solution("B", lambda p: log_B_n(p), b_predicates, BETA_V),
    "D": Solution("D", lambda p: log_D_n(p), d_predicates, DELTA_V),
}


# ---------------------------------------------------------------------------
# wall crossing


def jump(p: SolutionPoint, gamma_m: ChargeVector) -> complex:
    """The `qtorus.ray_factors` of ray ell_n (n the point's sector index) on
    y_gm, evaluated at q^(1/2) = exp(pi i tau) and u = sigma(gamma0) x^a y^b,
    gamma0 = (a, b): B_(n+1)/B_n on BETA_V, and D_(n+1)/D_n on DELTA_V.  The
    factors are evaluated, not their series in u, which need not converge.
    """
    from . import qtorus
    ray = qtorus.conifold_ray_charges("ell_n", p.n)
    u = qtorus.sigma(ray.gamma0) * p.x**ray.gamma0.a * p.y**ray.gamma0.b
    return math.prod(((1 + s * cmath.exp(1j * math.pi * p.tau * h) * u**w) ** e
                      for h, s, w, e in qtorus.ray_factors(ray, gamma_m)), start=1 + 0j)


def _wallcross(p: SolutionPoint, tol: float, solution: Solution) -> Residual:
    """X_(n+1)/X_n against `jump`; the row records the checklist at p."""
    lx = solution.log(p)
    lx1 = solution.log(p._replace(n=p.n + 1))
    preds = [q.to_json() for q in solution.predicates(p)]
    return Residual.compare(f"{solution.name}_wallcrossing(n={p.n})", cmath.exp(lx1 - lx),
                            jump(p, solution.gamma_m), tol, meta={"n": p.n, "predicates": preds})


def wallcross_B(p: SolutionPoint, tol: float = 1e-8) -> Residual:
    """B_(n+1)/B_n against `jump` on BETA_V, through the continuation."""
    return _wallcross(p, tol, SOLUTIONS["B"])


def wallcross_D(p: SolutionPoint, tol: float = 1e-8) -> Residual:
    """D_(n+1)/D_n against `jump` on DELTA_V, through the continuation."""
    return _wallcross(p, tol, SOLUTIONS["D"])


# ---------------------------------------------------------------------------
# reflection identities pairing t with -t


def reflection_B_rhs(p: SolutionPoint) -> complex:
    """prod_{n>=0} (1 - x y^n) * prod_{n>=1} (1 - x^(-1) y^n)^(-1): the F
    reflection product at (z, w1, w1t, w2) = (v, w, w, -t), where x2 = x and
    p = y."""
    return reflection_rhs_F(p.v, p.w, p.w, -p.t)


def reflection_D_rhs(p: SolutionPoint) -> complex:
    """The three product families of the quantum reflection identity:

    prod_{n>=1} prod_{k=0}^{n-1} (1 - q^((1-n+2k)/2) x y^n)
                                 (1 - q^((1-n+2k)/2) x^(-1) y^n)
    / prod_{n>=1} prod_{k=0}^{n-1} (1 - q^((2-n+2k)/2) y^n)(1 - q^((-n+2k)/2) y^n).

    With n = i + j + 1 and k = j each factor is 1 - u a^j b^i,
    a = q^(1/2) y, b = q^(-1/2) y, so the quotient is
    P(x y) P(y/x) / (P(q^(1/2) y) P(q^(-1/2) y)), P(u) = prod_{i,j>=0} (1 - u a^j b^i).
    At (w1, w1t, w2) = (w - t tau/2, w + t tau/2, -t) the G reflection
    product's nomes are q2 = a and q2t = b with (q2 q2t)^(1/2) = y, so its
    value at z = v is P(x y) P(y/x) and at z = -t tau/2 (x2 = q^(1/2)) it is
    P(a) P(b): the quotient is the GG2 row's.
    """
    tt2, w1, w1t, *_ = _d_arguments(p)
    return (reflection_rhs_G(p.v, w1, w1t, -p.t)
            / reflection_rhs_G(-tt2, w1, w1t, -p.t))


def reflection_B(p: SolutionPoint, tol: float = 1e-8) -> Residual:
    """B_0(t) B_0(-t) against the x,y product: the value forms F* at
    (v | w, -t) and (v | w, t), evaluated where |y| < 1 and the F*
    checklist holds."""
    lhs = F_star(p.v, p.w, -p.t) * F_star(p.v, p.w, p.t)
    return Residual.compare("B0_reflection", lhs, reflection_B_rhs(p), tol)


def reflection_D(p: SolutionPoint, tol: float = 1e-8) -> Residual:
    """D_0(t) D_0(-t) against the three-family product.

    The antipodal factor is the analytic extension of D_0 across the opposite
    half-plane; concretely it is G* with the same ordered pair
    (w - t tau/2, w + t tau/2) and the sign of the last slot flipped (the
    literal substitution t -> -t would swap the pair and land outside the
    convergence region of the tau-moments for every tau).  Both factors are
    the value form G*, which requires its checklist.
    """
    _, w1, w1t, *_ = _d_arguments(p)
    lhs = G_star(p.v, w1, w1t, -p.t) * G_star(p.v, w1, w1t, p.t)
    return Residual.compare("D0_reflection", lhs, reflection_D_rhs(p), tol)


# ---------------------------------------------------------------------------
# qRH2 limits and qRH3 growth


def richardson_limit(values: list[complex]) -> complex:
    """Extrapolate a sequence f(h_j), h_j = h_0 2^-j, assuming power
    corrections h, h^2, h^3 (a three-level Richardson table)."""
    table = [complex(v) for v in values]
    for m in range(1, 4):
        r = 2.0**m
        table = [(r * table[j + 1] - table[j]) / (r - 1)
                 for j in range(len(table) - 1)]
    return table[-1]


def qrh2_limit(p: SolutionPoint, solution: Solution) -> Residual:
    """t -> 0 limit along the ray through p.t: the Richardson-extrapolated
    value of the solution at t = p.t 2^-j, j = 0..7, compared with 1."""
    vals = [solution.value(p._replace(t=p.t * 0.5**j)) for j in range(8)]
    lim = richardson_limit(vals)
    return Residual.compare(f"qrh2_limit_{solution.name}(n={p.n})", lim, 1.0, QRH2_TOL,
                            meta={"raw_last": vals[-1]})


def along_ray(p: SolutionPoint, solution: Solution,
              radii: list[float]) -> tuple[list[complex], list[complex]]:
    """(ts, values) of the solution through its continuation, the log form,
    at t = (p.t/|p.t|) r for each radius r."""
    tdir = p.t / abs(p.t)
    ts = [tdir * r for r in radii]
    return ts, [cmath.exp(solution.log(p._replace(t=t))) for t in ts]


def check_qrh3_growth(p: SolutionPoint, solution: Solution) -> Residual:
    """|t| -> infinity polynomial-growth exponent of the solution along the
    ray through p.t, at |t| = 4 * 2^j, j = 0..6; the Q prefactors cancel the
    super-polynomial pieces, so the fitted log-log slope must be finite."""
    slope, dev = fit_loglog_slope(*along_ray(p, solution, [4.0 * 2.0**j for j in range(7)]))
    return Residual.exact(f"qrh3 growth exponent finite ({solution.name})",
                          math.isfinite(slope), True,
                          meta={"exponent": slope, "max_fit_deviation": dev, "n": p.n})


# ---------------------------------------------------------------------------
# tau-region scan


def region_neighborhood_tau(v: complex, w: complex, t: complex, n: int) -> dict:
    """Evaluate the D_n predicate checklist over default_tau_grid in the
    upper half-plane; returns the admissible subset (an empty set is a
    finding, not an error)."""
    require(mplus_predicates(v, w), "tau-region scan")
    rows = []
    for tau in default_tau_grid():
        p = SolutionPoint(v, w, t, tau, n)
        preds = d_predicates(p)
        rows.append({"tau": tau, "ok": all(q.ok for q in preds),
                     "failed": [q.name for q in preds if not q.ok]})
    admissible = [r["tau"] for r in rows if r["ok"]]
    return {"grid": rows, "admissible": admissible,
            "n_admissible": len(admissible), "n_total": len(rows)}


def default_tau_grid() -> list[complex]:
    """tau = r e^(i pi j/24), j = 1..23, for r = 0.3, 0.15, 0.075, 0.0375."""
    grid = []
    for r in (0.3, 0.15, 0.075, 0.0375):
        for j in range(1, 24):
            ang = math.pi * j / 24
            grid.append(r * cmath.exp(1j * ang))
    return grid


# ---------------------------------------------------------------------------
# refined Chern-Simons partition function (sin_3 ratio)


def sin3(z: complex, omegas: tuple[complex, complex, complex],
         tol: float = DEFAULT_TOL) -> complex:
    """Triple sine via G: sin_3(z | a, b, c) = G(z - (a+b)/2 | a, b, c)
    * exp(-(pi i/6) B_{3,3}(z | a, b, c))."""
    a, b, c = omegas
    lg, _ = log_G_cached(z - (a + b) / 2, a, b, c, tol)
    pref = -1j * math.pi / 6 * complex(multiple_bernoulli(3, 3, z, [a, b, c]))
    return cmath.exp(lg + pref)


def refined_cs_partition(delta_bar: complex, mu_bar: complex,
                         beta_par: complex) -> complex:
    """Z = beta/sqrt(mu_bar - (1-beta)/2)
        * sin_3((sqrt(b)+1/sqrt(b))/2 + delta_bar mu_bar | 1/sqrt(b), sqrt(b), delta_bar)
        / sin_3(sqrt(b) | 1/sqrt(b), sqrt(b), delta_bar)."""
    sb = cmath.sqrt(beta_par)
    omegas = (1 / sb, sb, delta_bar)
    num = sin3((sb + 1 / sb) / 2 + delta_bar * mu_bar, omegas)
    den = sin3(sb, omegas)
    pref = beta_par / cmath.sqrt(mu_bar - (1 - beta_par) / 2)
    return pref * num / den


def cs_point(t: complex, tau: complex, v: complex) -> SolutionPoint:
    """Solution point on the Chern-Simons matching locus: the identification
    sqrt(beta) = w - t tau/2, 1/sqrt(beta) = w + t tau/2 forces
    w^2 - (t tau/2)^2 = 1."""
    w = cmath.sqrt(1 + (t * tau / 2) ** 2)
    return SolutionPoint(v=v, w=w, t=t, tau=tau, n=0)


def cs_match_residual(p: SolutionPoint, tol: float = 1e-8) -> Residual:
    """sin_3 ratio of the partition function against the prefactor-adjusted
    D_0 under the identification

        delta_bar mu_bar <-> v,  sqrt(beta) <-> w - t tau/2,
        1/sqrt(beta) <-> w + t tau/2,  delta_bar <-> -t.

    The exponential and Bernoulli prefactors relating the two are
    reconstructed from the starred-function definitions.
    """
    _, w1, w1t, *_ = _d_arguments(p)
    require([Predicate("w^2 - (t tau/2)^2 = 1", -abs(w1 * w1t - 1), margin=-1e-10)],
            "CS matching locus")
    omegas = (w1, w1t, -p.t)
    # evaluated at its own tolerance so the sin_3 quadratures are independent
    # of the cached G evaluations inside D_0
    lhs = sin3(p.v + p.w, omegas, tol=1e-11) / sin3(w1, omegas, tol=1e-11)
    d0 = SOLUTIONS["D"].value(p._replace(n=0))
    qg = q_G(p.v, w1, w1t, -p.t)
    b33 = (multiple_bernoulli(3, 3, p.v + p.w, list(omegas))
           - multiple_bernoulli(3, 3, w1, list(omegas)))
    rhs = d0 * cmath.exp(-qg - 1j * math.pi / 6 * complex(b33))
    return Residual.compare("cs_sin3_vs_D0", lhs, rhs, tol)
