"""Identities at the seams between modules: invariance of the contour
representation, moment/shift relations, symmetry extensions."""

import cmath

import pytest

from conifoldrh.multisine import (PoleZeroError, f_moment, g_moment,
                                  log_F_contour, log_G_contour, qdilog_numeric)
from conifoldrh.qtorus import QTorusElement, conifold_ray_charges, dt_ray
from conifoldrh.lattice import BETA_V
from conifoldrh.rhsolver import SolutionPoint, log_B_n, log_D_n, sin3

Z, OB, W2 = 0.3 + 0.4j, 1 + 0.5j, 0.8 - 0.1j
W1, W1T = 1 + 0.1j, 0.95 - 0.07j


@pytest.mark.parametrize("c", [cmath.exp(0.3j), cmath.exp(-0.25j),
                               1.4 * cmath.exp(0.1j)])
def test_log_F_homogeneity(c):
    """log F is invariant under simultaneous rescaling of (z, w1bar, w2):
    substitute s -> s/c in the integral."""
    base, _ = log_F_contour(Z, OB, W2)
    scaled, _ = log_F_contour(c * Z, c * OB, c * W2)
    assert abs(scaled - base) < 1e-9


def test_shift_by_w2_equals_f_moment():
    """log F(z + w2) - log F(z) = f_(-1)(z, w1bar), compared through exp to
    stay branch-free."""
    d = log_F_contour(Z + W2, OB, W2)[0] - log_F_contour(Z, OB, W2)[0]
    assert abs(cmath.exp(d) - cmath.exp(f_moment(-1, Z, OB))) < 1e-10


def test_shift_by_w2_equals_g_moment():
    d = (log_G_contour(Z + W2, W1, W1T, W2)[0]
         - log_G_contour(Z, W1, W1T, W2)[0])
    assert abs(cmath.exp(d) - cmath.exp(g_moment(-1, Z, W1, W1T))) < 1e-10


def test_G_symmetric_in_first_pair():
    a = log_G_contour(Z, W1, W1T, W2)[0]
    b = log_G_contour(Z, W1T, W1, W2)[0]
    assert abs(a - b) < 1e-10
    # equal-parameter degeneration stays finite and symmetric trivially
    c = log_G_contour(Z, 1 + 0.05j, 1 + 0.05j, W2)[0]
    assert cmath.isfinite(c)


def test_sin3_homogeneity():
    omegas = (1 + 0.1j, 0.9 - 0.05j, 0.8 + 0.3j)
    z = 0.4 + 0.3j
    base = sin3(z, omegas)
    c = 1.2 * cmath.exp(0.2j)
    scaled = sin3(c * z, tuple(c * w for w in omegas))
    assert abs(scaled - base) / abs(base) < 1e-9


def test_qdilog_near_zero_factor_flagged():
    with pytest.raises(PoleZeroError):
        qdilog_numeric(1.0, 0.5)


def test_symmetry_extension_mirrored_points():
    """R_(-l,-gm)(-t) = R_(l,gm)(t): the mirrored-data evaluation of B_n and
    D_n (all of v, w, t negated) reproduces the original values."""
    v, w = 0.30 + 0.40j, 1.0 + 0j
    t, tau = 0.20 + 0.70j, 0.15 * cmath.exp(1.9j)
    for n in (0, 1):
        p = SolutionPoint(v, w, t, tau, n)
        pm = SolutionPoint(-v, -w, -t, tau, n)
        b, bm = (cmath.exp(log_B_n(q)) for q in (p, pm))
        assert abs(b - bm) / abs(b) < 1e-8
        d, dm = (cmath.exp(log_D_n(q)) for q in (p, pm))
        assert abs(d - dm) / abs(d) < 1e-8


def test_serialization_shapes():
    ser = dt_ray(conifold_ray_charges("ell_n", 0), 2, 8).to_json()
    assert ser[0] == {"power": 0, "coeff": [[0, "1"]]}
    assert all(set(row) == {"power", "coeff"} for row in ser)
    el = QTorusElement.generator(BETA_V).to_json()
    assert el == [{"charge": [0, 0, 1, 0], "coeff": [[0, "1"]]}]
