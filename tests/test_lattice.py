import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifoldrh.laurent import LaurentPoly
from conifoldrh.lattice import (BETA, BETA_V, DELTA, DELTA_V, ChargeVector,
                                RayGeometry, RegionError, conifold_bps,
                                conifold_omega, in_mplus, skew_pair)

V, W = 0.3 + 0.4j, 1.0 + 0j

charges = st.builds(ChargeVector, st.integers(-8, 8), st.integers(-8, 8),
                    st.integers(-8, 8), st.integers(-8, 8))


def test_skew_basis_values():
    assert skew_pair(BETA_V, BETA) == 1
    assert skew_pair(DELTA_V, DELTA) == 1
    assert skew_pair(BETA, DELTA) == 0
    assert skew_pair(BETA_V, DELTA_V) == 0


@given(charges, charges)
def test_skew_antisymmetric(g1, g2):
    assert skew_pair(g1, g2) == -skew_pair(g2, g1)


@given(charges)
def test_skew_self_zero(g):
    assert skew_pair(g, g) == 0


def test_conifold_omega_values():
    assert conifold_omega(ChargeVector(1, 3)) == LaurentPoly.one()
    assert conifold_omega(ChargeVector(0, 0, 1, 0)).is_zero()
    assert conifold_omega(ChargeVector(0, -2)) == LaurentPoly({1: 1, -1: 1})
    assert conifold_omega(ChargeVector(0, 0)).is_zero()
    assert conifold_omega(ChargeVector(2, 1)).is_zero()


@given(charges)
def test_omega_symmetric(g):
    assert conifold_omega(g) == conifold_omega(-g)


def test_mplus_rejection():
    with pytest.raises(RegionError) as exc:
        conifold_bps(0.3 - 0.4j, 1.0)    # Im(v/w) < 0
    assert "Im(v/w)" in str(exc.value)
    with pytest.raises(RegionError):
        conifold_bps(0.3 + 0.4j, 0.0)    # w = 0
    with pytest.raises(RegionError):
        conifold_bps(-3.0 + 0j, 1.0)     # v + 3w = 0
    assert in_mplus(V, W)


def test_central_charge_and_support():
    s = conifold_bps(V, W)
    assert abs(s.central_charge(ChargeVector(2, 5))
               - 2j * math.pi * (2 * V + 5 * W)) < 1e-14
    # extended by zero on the magnetic half
    assert s.central_charge(ChargeVector(0, 0, 3, -1)) == 0
    c = s.support_constant()
    assert c > 0
    # the min over a box is a genuine lower bound inside that box
    for a in range(-8, 9):
        for b in range(-8, 9):
            g = ChargeVector(a, b)
            if not g.is_zero() and not conifold_omega(g).is_zero():
                assert abs(s.central_charge(g)) >= c * g.max_norm() - 1e-12


def test_classify_active_rays():
    geom = RayGeometry(V, W)
    r = geom.classify_ray(2j * math.pi * (V + 3 * W))
    assert r.status == "active" and r.ray == "ell(3)"
    r = geom.classify_ray(-2j * math.pi * W)
    assert r.status == "active" and r.ray == "-ell_inf"
    assert geom.ray_charge("ell(3)") == ChargeVector(1, 3)
    assert geom.ray_charge("-ell_inf") == -DELTA


def test_classify_sector_midpoint():
    geom = RayGeometry(V, W)
    # midpoint direction of Sigma(1)'s bounding rays ell(0), ell(1)
    t = 1j * math.pi * (2 * V + W)
    r = geom.classify_ray(t)
    assert r.status == "sector"
    assert r.sector == "Sigma(1)"
    assert r.bounds == ("ell(0)", "ell(1)")


def test_classify_ambiguous_band():
    geom = RayGeometry(V, W)
    t = 2j * math.pi * V * cmath.exp(1e-10j)
    r = geom.classify_ray(t)
    assert r.status == "ambiguous"
    assert r.ray == "ell(0)"


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=30)
def test_classify_scale_invariant(lam):
    geom = RayGeometry(V, W)
    t = 0.3 + 1.1j
    assert geom.classify_ray(t) == geom.classify_ray(lam * t)


def test_charge_arithmetic():
    g = ChargeVector(1, -2, 3, 0)
    assert (g + (-g)).is_zero()
    assert (2 * g).coords() == (2, -4, 6, 0)
    assert g.max_norm() == 3
    assert g.electric_part() + g.magnetic_part() == g
