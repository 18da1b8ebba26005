"""Charge lattice, central charge and BPS data for the resolved conifold.

The doubled lattice has basis (beta, delta, beta^, delta^) where the hatted
generators are the dual (magnetic) basis.  The skew form vanishes on the
electric and on the magnetic halves and pairs <beta^, beta> = <delta^, delta> = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .checks import Predicate, RegionError, require  # noqa: F401 (RegionError re-exported)
from .laurent import LaurentPoly

TWO_PI_I = 2j * math.pi

#: Depth of the finite "v + n w != 0" scan in the M+ membership test.
MPLUS_SCAN_DEPTH = 64

#: Angular tolerance (radians) for deciding that a direction lies on a ray.
RAY_ANGLE_TOL = 1e-12

#: Directions closer than this (but farther than RAY_ANGLE_TOL) to an active
#: ray are reported as ambiguous instead of being silently snapped.
RAY_AMBIGUOUS_TOL = 1e-9


@dataclass(frozen=True)
class ChargeVector:
    """Integer charge a*beta + b*delta + ma*beta^ + mb*delta^."""

    a: int = 0
    b: int = 0
    ma: int = 0
    mb: int = 0

    def __add__(self, other: "ChargeVector") -> "ChargeVector":
        return ChargeVector(self.a + other.a, self.b + other.b,
                            self.ma + other.ma, self.mb + other.mb)

    def __sub__(self, other: "ChargeVector") -> "ChargeVector":
        return ChargeVector(self.a - other.a, self.b - other.b,
                            self.ma - other.ma, self.mb - other.mb)

    def __neg__(self) -> "ChargeVector":
        return ChargeVector(-self.a, -self.b, -self.ma, -self.mb)

    def __mul__(self, k: int) -> "ChargeVector":
        return ChargeVector(k * self.a, k * self.b, k * self.ma, k * self.mb)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == self.b == self.ma == self.mb == 0

    def is_electric(self) -> bool:
        return self.ma == 0 and self.mb == 0

    def electric_part(self) -> "ChargeVector":
        return ChargeVector(self.a, self.b, 0, 0)

    def magnetic_part(self) -> "ChargeVector":
        return ChargeVector(0, 0, self.ma, self.mb)

    def max_norm(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.ma), abs(self.mb))

    def coords(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.ma, self.mb)


BETA = ChargeVector(1, 0, 0, 0)
DELTA = ChargeVector(0, 1, 0, 0)
BETA_V = ChargeVector(0, 0, 1, 0)
DELTA_V = ChargeVector(0, 0, 0, 1)


def skew_pair(g1: ChargeVector, g2: ChargeVector) -> int:
    """Canonical skew form on the doubled lattice, <beta^, beta> = 1."""
    return (g1.ma * g2.a - g1.a * g2.ma) + (g1.mb * g2.b - g1.b * g2.mb)


def mplus_predicates(v: complex, w: complex) -> list[Predicate]:
    """Named predicate checklist for membership in the region M+, with the
    witnesses |w|, min_n |v + n w| and Im(v/w)."""
    return [
        Predicate("w != 0", abs(w)),
        Predicate(f"v + n*w != 0 for |n| <= {MPLUS_SCAN_DEPTH}",
                  min(abs(v + n * w)
                      for n in range(-MPLUS_SCAN_DEPTH, MPLUS_SCAN_DEPTH + 1))),
        Predicate("Im(v/w) > 0", (v / w).imag if w != 0 else math.nan),
    ]


def in_mplus(v: complex, w: complex) -> bool:
    return all(p.ok for p in mplus_predicates(v, w))


def conifold_omega(gamma: ChargeVector) -> LaurentPoly:
    """Motivic invariant of the conifold, valued in Z[L^(1/2), L^(-1/2)].

    Extended by zero on the magnetic half of the doubled lattice.
    """
    if not gamma.is_electric():
        return LaurentPoly.zero()
    if abs(gamma.a) == 1:
        return LaurentPoly.one()
    if gamma.a == 0 and gamma.b != 0:
        return LaurentPoly({1: 1, -1: 1})
    return LaurentPoly.zero()


@dataclass(frozen=True)
class RefinedBPSStructure:
    """Lattice + central charge at a stability point; the invariants are
    conifold_omega."""

    v: complex
    w: complex

    def central_charge(self, gamma: ChargeVector) -> complex:
        # extended by zero on the magnetic half
        return TWO_PI_I * (gamma.a * self.v + gamma.b * self.w)

    def support_constant(self) -> float:
        """Empirical support constant: min |Z(g)| / ||g|| over the coordinate
        box |a|, |b| <= 8.

        Only charges with nonzero invariant contribute.  The constant is
        reported, not asserted against any prescribed value.
        """
        best = math.inf
        for a in range(-8, 9):
            for b in range(-8, 9):
                g = ChargeVector(a, b)
                if g.is_zero() or conifold_omega(g).is_zero():
                    continue
                best = min(best, abs(self.central_charge(g)) / g.max_norm())
        return best


def conifold_bps(v: complex, w: complex) -> RefinedBPSStructure:
    """Conifold BPS structure at (v, w); rejects points outside M+."""
    require(mplus_predicates(v, w), "conifold BPS structure")
    return RefinedBPSStructure(v=v, w=w)


# ---------------------------------------------------------------------------
# Ray geometry


def _angle_diff(a: float, b: float) -> float:
    """Signed angular difference a - b reduced to (-pi, pi]."""
    d = (a - b) % (2 * math.pi)
    if d > math.pi:
        d -= 2 * math.pi
    return d


@dataclass(frozen=True)
class RayClassification:
    status: str                 # "active" | "ambiguous" | "sector"
    ray: str | None = None      # name of the matched / nearest active ray
    sector: str | None = None   # name of the containing sector
    bounds: tuple[str, str] | None = None  # (anticlockwise ray, clockwise ray)


@dataclass(frozen=True)
class RayGeometry:
    """Active rays ell_n = R>0 * 2 pi i (v + n w) and ell_inf = R>0 * 2 pi i w."""

    v: complex
    w: complex

    def __post_init__(self):
        require(mplus_predicates(self.v, self.w), "ray geometry")

    def ell_n_dir(self, n: int) -> complex:
        return TWO_PI_I * (self.v + n * self.w)

    def ell_inf_dir(self) -> complex:
        return TWO_PI_I * self.w

    def ray_charge(self, name: str) -> ChargeVector:
        """Primitive charge whose central charge spans the named ray."""
        if name == "ell_inf":
            return DELTA
        if name == "-ell_inf":
            return -DELTA
        sign = -1 if name.startswith("-") else 1
        n = int(name.split("(")[1].rstrip(")"))
        g = ChargeVector(1, n)
        return g if sign == 1 else -g

    def active_rays(self, nmax: int) -> list[tuple[str, float]]:
        rays = [("ell_inf", cmath.phase(self.ell_inf_dir())),
                ("-ell_inf", cmath.phase(-self.ell_inf_dir()))]
        for n in range(-nmax, nmax + 1):
            d = self.ell_n_dir(n)
            rays.append((f"ell({n})", cmath.phase(d)))
            rays.append((f"-ell({n})", cmath.phase(-d)))
        return rays

    def classify_ray(self, t: complex) -> RayClassification:
        """Classify the ray through t against the active rays, scanning |n| <= 16.

        Directions within RAY_ANGLE_TOL of an active ray are active; within
        RAY_AMBIGUOUS_TOL they are flagged ambiguous rather than resolved
        either way.
        """
        if t == 0:
            raise ValueError("t must be nonzero")
        phase = cmath.phase(t)
        rays = self.active_rays(16)
        name, dist = min(((nm, abs(_angle_diff(phase, ph))) for nm, ph in rays),
                         key=lambda item: item[1])
        if dist <= RAY_ANGLE_TOL:
            return RayClassification(status="active", ray=name)
        if dist <= RAY_AMBIGUOUS_TOL:
            return RayClassification(status="ambiguous", ray=name)
        # containing sector: bracket between the nearest rays on either side
        above = min(rays, key=lambda r: _angle_diff(r[1], phase) % (2 * math.pi))
        below = min(rays, key=lambda r: _angle_diff(phase, r[1]) % (2 * math.pi))
        sector = _sector_name(above[0], below[0])
        return RayClassification(status="sector", sector=sector,
                                 bounds=(above[0], below[0]))


def _sector_name(anticlockwise: str, clockwise: str) -> str:
    """Human name for the sector with the given bounding active rays.

    Sigma(n) is the convex sector bounded by ell(n-1) and ell(n); its image
    under -1 is named -Sigma(n).  Sectors adjacent to +-ell_inf within the
    scanned range do not resolve to a finite label and keep the raw bounds.
    """
    for prefix in ("", "-"):
        pat = prefix + "ell("
        if (anticlockwise.startswith(pat) and clockwise.startswith(pat)
                and not (prefix == "" and (anticlockwise[0] == "-" or clockwise[0] == "-"))):
            n_acw = int(anticlockwise.split("(")[1].rstrip(")"))
            n_cw = int(clockwise.split("(")[1].rstrip(")"))
            # arg(ell(n)) decreases with n, so the anticlockwise bound has the
            # smaller index and the sector is Sigma(larger index)
            if n_cw == n_acw + 1:
                return f"{prefix}Sigma({n_cw})"
    return f"sector({anticlockwise},{clockwise})"
