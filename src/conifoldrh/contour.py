"""Adaptive quadrature along rotated detour contours in the complex plane.

The contours used by the integral representations are a straight line through
the origin (rotated by a unit complex c), with a small semicircle over the
origin: c * ([-R, -eps] + upper semicircle + [eps, R]).  Panels are refined by
bisection, with the per-panel error estimated from the difference between
embedded Gauss rules; refinement continues until the summed estimate is below
a fraction of the requested tolerance, so halving the tolerance provably
tightens the reported estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X21, _W21 = np.polynomial.legendre.leggauss(21)

#: refinement stops once the summed panel estimate drops below this fraction
#: of the requested tolerance
SAFETY = 0.45


class QuadratureError(RuntimeError):
    """Numerical failure: non-convergent tail or panel budget exhausted."""


class RotationError(ValueError):
    """No admissible contour rotation exists for the given directions."""

    def __init__(self, message, failed=None):
        super().__init__(message)
        self.failed = failed or []


@dataclass(frozen=True)
class ContourSpec:
    """Contour parameters; None means choose automatically per integrand."""

    eps: float | None = None      # radius of the origin semicircle
    R: float | None = None        # outer cutoff
    rotation: complex | None = None  # unit complex c
    tol: float = 3e-11
    eps_plus: float | None = None    # tilt used for the moment-integral rotation
    max_panels: int = 4000


def _panel(f: Callable[[complex], complex], a: complex, b: complex) -> tuple[complex, float]:
    """Integral over the straight segment [a, b] with an error estimate."""
    mid = (a + b) / 2
    half = (b - a) / 2
    z10 = mid + half * _X10
    z21 = mid + half * _X21
    f10 = np.array([f(z) for z in z10])
    f21 = np.array([f(z) for z in z21])
    i10 = half * np.dot(_W10, f10)
    i21 = half * np.dot(_W21, f21)
    return i21, abs(i21 - i10)


def integrate_segment(f, a: complex, b: complex, tol: float,
                      max_panels: int = 4000) -> tuple[complex, float]:
    """Adaptive integral of f over [a, b] (complex straight segment).

    Refines the worst panel until the summed estimate is below SAFETY*tol or
    the panel budget runs out; the achieved estimate is returned either way
    (callers enforce their overall budget).
    """
    val, err = _panel(f, a, b)
    panels = [(err, a, b, val)]
    total_err = err
    while total_err > SAFETY * tol and len(panels) < max_panels:
        panels.sort(key=lambda p: p[0])
        err0, a0, b0, v0 = panels.pop()
        m = (a0 + b0) / 2
        vl, el = _panel(f, a0, m)
        vr, er = _panel(f, m, b0)
        panels.append((el, a0, m, vl))
        panels.append((er, m, b0, vr))
        total_err += el + er - err0
    return complex(sum(p[3] for p in panels)), float(total_err)


def integrate_arc(f, radius: float, c: complex, tol: float,
                  phi0: float = math.pi, phi1: float = 0.0) -> tuple[complex, float]:
    """Integral of f over the rotated arc  s = c * radius * e^(i phi)."""

    def g(phi):
        phi = phi.real
        s = c * radius * cmath.exp(1j * phi)
        return f(s) * 1j * s

    return integrate_segment(g, phi0, phi1, tol)


def geometric_knots(eps: float, R: float) -> list[float]:
    """Panel seeds [eps, 2 eps, 4 eps, ..., R] for the half-lines."""
    knots = [eps]
    x = eps
    while x * 2 < R:
        x *= 2
        knots.append(x)
    knots.append(R)
    return knots


def detour_integral(f, eps: float, R: float, c: complex, tol: float,
                    max_panels: int = 4000) -> tuple[complex, float]:
    """Integral over c*([-R,-eps]) + upper semicircle + c*([eps,R])."""
    knots = geometric_knots(eps, R)
    budget_tol = tol / (2 * len(knots))
    val = 0j
    err = 0.0
    for x0, x1 in zip(knots, knots[1:]):
        v, e = integrate_segment(f, -c * x1, -c * x0, budget_tol, max_panels)
        val += v
        err += e
    v, e = integrate_arc(f, eps, c, tol / 4)
    val += v
    err += e
    for x0, x1 in zip(knots, knots[1:]):
        v, e = integrate_segment(f, c * x0, c * x1, budget_tol, max_panels)
        val += v
        err += e
    if err > tol:
        raise QuadratureError(
            f"contour quadrature estimate {err:g} above tolerance {tol:g}")
    # The reported estimate is the enforced bound: subdivision continues until
    # the summed panel estimate is below SAFETY*tol, so the bound scales with
    # the requested tolerance (raw sums jump in large steps because the panel
    # rule converges spectrally).
    return complex(val), float(max(err, SAFETY * tol))


def choose_outer_cutoff(f, c: complex, eps: float, tol: float,
                        r_start: float = 8.0, r_max: float = 1e6) -> float:
    """Grow R until the integrand is negligible at both rotated endpoints.

    The integrands here decay exponentially along both half-lines whenever the
    validity conditions hold, so |f| at the endpoint (times a unit scale) is a
    usable proxy for the tail.
    """
    R = max(r_start, 4 * eps)
    while R <= r_max:
        if abs(f(c * R)) + abs(f(-c * R)) < tol * 1e-3:
            return R
        R *= 2
    raise QuadratureError(
        "integrand does not decay along the contour (non-convergent tail); "
        "check validity conditions")


def hull_rotation(directions: list[complex],
                  names: list[str] | None = None) -> tuple[complex, float]:
    """Unit c with Re(c d) > 0 for every direction d, with maximal margin.

    Exists iff the directions span an angular hull of width < pi.  Returns
    (c, margin) where margin is the angular slack on each side.
    """
    if names is None:
        names = [f"dir{i}" for i in range(len(directions))]
    args = []
    for d, nm in zip(directions, names):
        if d == 0:
            raise RotationError(f"direction {nm} vanishes", [nm])
        args.append(cmath.phase(d))
    if len(args) == 1:
        return cmath.exp(-1j * args[0]), math.pi / 2
    # widest gap on the circle; hull = complement
    order = sorted(args)
    gaps = [(order[(i + 1) % len(order)] - order[i]) % (2 * math.pi)
            for i in range(len(order))]
    widest = max(range(len(gaps)), key=lambda i: gaps[i])
    hull = 2 * math.pi - gaps[widest]
    if hull >= math.pi - 1e-12:
        raise RotationError(
            "directions span a half-plane or more (angular hull "
            f"{hull:.6f} rad >= pi): " + ", ".join(names), names)
    # hull runs from order[widest+1] anticlockwise through width `hull`
    start = order[(widest + 1) % len(order)]
    mid = start + hull / 2
    margin = (math.pi - hull) / 2
    return cmath.exp(-1j * mid), margin
