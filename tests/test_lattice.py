import pytest
from hypothesis import given
from hypothesis import strategies as st

from conifoldrh.laurent import LaurentPoly
from conifoldrh.lattice import (BETA, BETA_V, DELTA, DELTA_V, ChargeVector,
                                RegionError, conifold_bps, conifold_omega,
                                in_mplus, skew_pair)

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


def test_charge_arithmetic():
    g = ChargeVector(1, -2, 3, 0)
    assert g + (-g) == ChargeVector()
    assert (2 * g).coords() == (2, -4, 6, 0)
    assert g - g == ChargeVector() and g + ChargeVector(ma=-3) == ChargeVector(1, -2)
    assert g.is_electric() is False and ChargeVector(1, -2).is_electric()
