"""Every precondition names its predicate: one bad input per public entry
point that checks a region condition.  Each raises RegionError (the CLI's
exit 2) with a non-empty `failed` list, and each failed name appears in the
message."""

import cmath
import math

import pytest

from conifoldrh import lattice, multisine, rhsolver
from conifoldrh.checks import Predicate, RegionError, require
from conifoldrh.contour import RotationError, hull_rotation
from conifoldrh.rhsolver import SolutionPoint
from test_contour import f_moment_residue_oracle

V, W = 0.3 + 0.4j, 1.0 + 0j
Z_BAD = 0.3 - 0.4j                        # Im(z/w1bar) < 0 for w1bar = 1
W1, W1T, W2 = 1 + 0.1j, 0.95 - 0.07j, 0.8 - 0.1j
P_DEFAULT = SolutionPoint(V, W, -0.2 - 0.7j, 0.15j)   # |y| > 1, Im(v/(-t)) < 0
P_IV = SolutionPoint(V, W, 0.2 + 0.7j, 0.15j)         # |y| < 1, off the CS locus
P_Z_BAD = P_IV._replace(v=Z_BAD)                      # Im(v/w) < 0: F* and G* refuse
# on the CS locus, with t in the half-plane opposite to cs-match's points:
# the sin_3 ratio evaluates, then D_0 refuses Im(z0/(-t)) > 0
P_CS_FLIPPED = rhsolver.cs_point(-0.2 - 0.7j, 0.15 * cmath.exp(1.2j), V)
# z = dw with |w| = |q| = 0.999: the Lambert series would need ~37000 terms
W1Q = cmath.exp(0.1j)
W1TQ = W1Q * (1 - 1j * -math.log(0.999) / (2 * math.pi))
DWQ = (W1Q - W1TQ) / 2

CASES = {
    "F_product": lambda: multisine.F_product(V, 1.0, 1.0),
    "f_moment_quad": lambda: multisine.f_moment_quad(-1, Z_BAD, 1.0),
    "g_moment_quad": lambda: multisine.g_moment_quad(-1, Z_BAD, W1, W1T),
    "f_moment_series": lambda: multisine.f_moment_series(-1, Z_BAD, 1.0),
    "g family coincident": lambda: multisine.g_moment_series(-1, V, 1.0, 2.0),
    "g family divergent": lambda: multisine.g_moment_series(-1, -0.5j, 1.0, 1 + 0.5j),
    "g family term budget": lambda: multisine.g_moment_series(-2, DWQ, W1Q, W1TQ),
    "qdilog_numeric": lambda: multisine.qdilog_numeric(0.5, 1.0),
    "log_F_star": lambda: multisine.log_F_star(Z_BAD, 1.0, W2),
    "log_G_star": lambda: multisine.log_G_star(0.25 + 0.45j, W1T, W1, W2),
    "F_star": lambda: multisine.F_star(Z_BAD, 1.0, W2),
    "G_star": lambda: multisine.G_star(0.25 + 0.45j, W1T, W1, W2),
    "residue_lemma_check": lambda: multisine.residue_lemma_check(-1 + 0j, 2),
    "reflection_rhs_F": lambda: multisine.reflection_rhs_F(V, W1, W1T, 1.0),
    "reflection_rhs_G": lambda: multisine.reflection_rhs_G(V, W1, W1T, 1.0),
    "f_moment_residue_oracle": lambda: f_moment_residue_oracle(-1, Z_BAD, 1.0),
    "B_n": lambda: rhsolver.SOLUTIONS["B"].value(P_DEFAULT),
    "D_n": lambda: rhsolver.SOLUTIONS["D"].value(SolutionPoint(V, W, 0.2 + 0.7j, 0.15j)),
    "reflection_B_rhs": lambda: rhsolver.reflection_B_rhs(P_DEFAULT),
    "reflection_D_rhs": lambda: rhsolver.reflection_D_rhs(
        SolutionPoint(V, W, 0.2 + 0.7j, 3j)),
    "cs_match_residual": lambda: rhsolver.cs_match_residual(P_IV),
    "reflection_B": lambda: rhsolver.reflection_B(P_Z_BAD),
    "reflection_D": lambda: rhsolver.reflection_D(P_Z_BAD),
    "cs_match_residual D_0": lambda: rhsolver.cs_match_residual(P_CS_FLIPPED),
    "sin3": lambda: rhsolver.sin3(0.5, (1.0, -1.0, 1j)),
    "region_neighborhood_tau": lambda: rhsolver.region_neighborhood_tau(
        1.0, 1.0, 0.2 + 0.7j, 0),
    "conifold_bps": lambda: lattice.conifold_bps(1.0, 1.0),
    "hull_rotation": lambda: hull_rotation([1.0, -1.0], ["a", "b"]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_precondition_names_its_predicate(name):
    with pytest.raises(RegionError) as exc:
        CASES[name]()
    assert exc.value.failed
    for failed in exc.value.failed:
        assert failed in str(exc.value)


def test_cs_match_refuses_D0_where_sin3_evaluates():
    """The cs-match row takes its sin_3 ratio first and D_0 by its value
    form after, so off D_0's half-plane the refusal names D_0."""
    p = P_CS_FLIPPED
    omegas = (p.w - p.t * p.tau / 2, p.w + p.t * p.tau / 2, -p.t)
    assert cmath.isfinite(rhsolver.sin3(p.v + p.w, omegas, tol=1e-11)
                          / rhsolver.sin3(omegas[0], omegas, tol=1e-11))
    with pytest.raises(RegionError, match="D_0 undefined") as exc:
        rhsolver.cs_match_residual(p)
    assert exc.value.failed == ["Im(z0/(-t)) > 0"]


def test_mplus_witnesses():
    preds = {p.name: p for p in lattice.mplus_predicates(1.0, 1.0)}
    assert preds["w != 0"].value == 1.0
    assert preds["Im(v/w) > 0"].value == 0.0
    assert [p.ok for p in preds.values()] == [True, False]
    assert lattice.in_mplus(V, W)


def test_predicate_margin_and_grouping():
    assert Predicate("x", 1e-12, margin=1e-12).ok is False
    assert Predicate("x", 2e-12, margin=1e-12).ok is True
    assert Predicate("x", 0.5).to_json() == {"name": "x", "ok": True,
                                             "value": 0.5, "kind": "region"}
    require([Predicate("fine", 1.0)], "nothing")
    with pytest.raises(RegionError) as exc:
        require([Predicate("a", -1.0, "half-plane"), Predicate("b", 1.0),
                 Predicate("c", -1.0, "tau")], "thing")
    assert str(exc.value) == ("thing undefined; outside tau-neighborhood: c; "
                              "outside t half-plane: a")
    assert exc.value.failed == ["a", "c"]


def test_rotation_error_is_region_error():
    assert issubclass(RotationError, RegionError)
    assert lattice.RegionError is RegionError
