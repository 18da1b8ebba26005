"""Adaptive quadrature along rotated detour contours in the complex plane.

The contours used by the integral representations are a straight line through
the origin (rotated by a unit complex c), with a small semicircle over the
origin: c * ([-R, -eps] + upper semicircle + [eps, R]).  Each panel is
integrated by the nested Gauss-Kronrod pair G10/K21 (QUADPACK qk21): the 21
Kronrod nodes contain the 10 Gauss nodes, so one set of 21 evaluations gives
the K21 value and the error estimate |K21 - G10|.  Panels sit in a heap keyed
on their estimate and the worst one is bisected first; refinement continues
until the summed estimate is below a fraction of the requested tolerance, so
halving the tolerance provably tightens the reported estimate.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from typing import Callable

from .checks import RegionError

#: Kronrod nodes of qk21 on [-1, 1] paired +-x, with their K21 weights; the
#: nodes of the first list are also the 10-point Gauss nodes (G10 weight last)
_GAUSS_PAIRS = (
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
)
_KRONROD_PAIRS = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.562757134668604683339000099272694, 0.123491976262065851077600525452338),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
)
#: K21 weight of the centre node (not a Gauss node)
_KRONROD_CENTRE = 0.149445554002916905664936468389821

#: refinement stops once the summed panel estimate drops below this fraction
#: of the requested tolerance
SAFETY = 0.45

#: panels one segment of a contour may be bisected into
MAX_PANELS = 4000


class QuadratureError(RuntimeError):
    """Numerical failure: non-convergent tail or panel budget exhausted."""


class RotationError(RegionError):
    """No admissible contour rotation exists for the given directions."""


#: default quadrature tolerance of a contour routine; the panel budget is
#: MAX_PANELS, and the rotation, semicircle radius and outer cutoff follow
#: from each integrand
DEFAULT_TOL = 3e-11


def ContourSpec(tol: float = DEFAULT_TOL) -> float:
    """`tol` itself, for callers written against the former one-field
    record; the benchmark change of ROADMAP item 1 step 1c drops it."""
    return tol


def _panel(f: Callable[[complex], complex], a: complex, b: complex) -> tuple[complex, float]:
    """K21 integral over the straight segment [a, b], with |K21 - G10|."""
    mid = (a + b) / 2
    half = (b - a) / 2
    kron = _KRONROD_CENTRE * f(mid)
    gauss = 0j
    for x, wk, wg in _GAUSS_PAIRS:
        d = half * x
        pair = f(mid - d) + f(mid + d)
        kron += wk * pair
        gauss += wg * pair
    for x, wk in _KRONROD_PAIRS:
        d = half * x
        kron += wk * (f(mid - d) + f(mid + d))
    return half * kron, abs(half * (kron - gauss))


def integrate_segment(f, a: complex, b: complex, tol: float) -> tuple[complex, float]:
    """Adaptive integral of f over [a, b] (complex straight segment).

    Bisects the worst panel until the summed estimate is below SAFETY*tol or
    the segment holds MAX_PANELS panels; the achieved estimate is returned
    either way (callers enforce their overall budget).  The panel values are
    summed exactly rounded, so the result does not depend on the heap order.
    """
    val, err = _panel(f, a, b)
    order = itertools.count()
    heap = [(-err, next(order), a, b, val)]
    total_err = err
    while total_err > SAFETY * tol and len(heap) < MAX_PANELS:
        neg_err, _, a0, b0, _ = heapq.heappop(heap)
        m = (a0 + b0) / 2
        vl, el = _panel(f, a0, m)
        vr, er = _panel(f, m, b0)
        heapq.heappush(heap, (-el, next(order), a0, m, vl))
        heapq.heappush(heap, (-er, next(order), m, b0, vr))
        total_err += el + er + neg_err
    return (complex(math.fsum(p[4].real for p in heap),
                    math.fsum(p[4].imag for p in heap)), float(total_err))


def integrate_arc(f, radius: float, c: complex, tol: float) -> tuple[complex, float]:
    """Integral of f over the rotated upper semicircle  s = c * radius * e^(i phi),
    phi from pi down to 0."""
    cr, rect = c * radius, cmath.rect

    def g(phi):
        s = cr * rect(1.0, phi)
        return f(s) * (1j * s)

    return integrate_segment(g, math.pi, 0.0, tol)


def geometric_knots(eps: float, R: float) -> list[float]:
    """Panel seeds [eps, 2 eps, 4 eps, ..., R] for the half-lines."""
    knots = [eps]
    x = eps
    while x * 2 < R:
        x *= 2
        knots.append(x)
    knots.append(R)
    return knots


def detour_integral(lower, upper, eps: float, R: float, c: complex,
                    tol: float) -> tuple[complex, float]:
    """Integral over c*([-R,-eps]) + upper semicircle + c*([eps,R]) of one
    integrand given by two forms: `lower` on c[-R, -eps] and the arc,
    `upper` on c[eps, R]."""
    knots = geometric_knots(eps, R)
    budget_tol = tol / (2 * len(knots))
    val = 0j
    err = 0.0
    for x0, x1 in zip(knots, knots[1:]):
        v, e = integrate_segment(lower, -c * x1, -c * x0, budget_tol)
        val += v
        err += e
    v, e = integrate_arc(lower, eps, c, tol / 4)
    val += v
    err += e
    for x0, x1 in zip(knots, knots[1:]):
        v, e = integrate_segment(upper, c * x0, c * x1, budget_tol)
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


def choose_outer_cutoff(f, c: complex, eps: float, tol: float) -> float:
    """Grow R from 8 (or 4 eps) up to 1e6 until the integrand is negligible
    at both rotated endpoints.

    The integrands here decay exponentially along both half-lines whenever the
    validity conditions hold, so |f| at the endpoint (times a unit scale) is a
    usable proxy for the tail.
    """
    R = max(8.0, 4 * eps)
    while R <= 1e6:
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
    if len(set(args)) == 1:
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
