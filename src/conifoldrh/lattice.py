"""Charge lattice, stability region M+ and BPS invariants of the resolved
conifold.

The doubled lattice has basis (beta, delta, beta^, delta^) where the hatted
generators are the dual (magnetic) basis.  The skew form vanishes on the
electric and on the magnetic halves and pairs <beta^, beta> = <delta^, delta> = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .checks import Predicate, RegionError, require  # noqa: F401 (RegionError re-exported)
from .laurent import LaurentPoly

#: Depth of the finite "v + n w != 0" scan in the M+ membership test.
MPLUS_SCAN_DEPTH = 64


class ChargeVector(NamedTuple):
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


class RefinedBPSStructure(NamedTuple):
    """Stability point (v, w) in M+; the invariants are conifold_omega."""

    v: complex
    w: complex


def conifold_bps(v: complex, w: complex) -> RefinedBPSStructure:
    """Conifold BPS structure at (v, w); rejects points outside M+."""
    require(mplus_predicates(v, w), "conifold BPS structure")
    return RefinedBPSStructure(v=v, w=w)

