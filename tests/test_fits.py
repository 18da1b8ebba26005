"""The standard-library least-squares fits: Householder QR for the large-w2
coefficient fit against a 30-digit mpmath oracle, and the closed-form
log-log slope behind the small-w2 order and |t| growth checks."""
import cmath
import math
import random

import mpmath
import pytest

from conifoldrh.multisine import (_complex_lstsq, _infinity_fit_rows,
                                  fit_loglog_slope)

DIRECTIONS = [cmath.exp(-0.3j), cmath.exp(0.4j), 1.0, cmath.exp(-1.2j)]
# the growing terms of log F and log G, in asymptotic_infinity_fit's column order
TERMS = {"F": ("linear", "log"), "G": ("quadratic", "linear", "log")}


def _w2s(w2_dir):
    # asymptotic_infinity_fit's default schedule: w2 = 16 * 2^m, m = 0..7
    return [w2_dir * 16.0 * 2.0**m for m in range(8)]


def _rows(mode, w2_dir):
    return _infinity_fit_rows(TERMS[mode], _w2s(w2_dir))


@pytest.mark.parametrize("w2_dir", DIRECTIONS)
def test_fit_rows_are_the_written_out_basis(w2_dir):
    """Each column is the change of one term from w2 to 2 w2, bit for bit:
    3 w2^2, w2, log 2, -1/(2 w2) and -3/(4 w2^2)."""
    lf = math.log(2.0)
    w2s = _w2s(w2_dir)[:-1]
    assert _rows("F", w2_dir) == [[w2, lf, -0.5 / w2, -0.75 / w2**2] for w2 in w2s]
    assert _rows("G", w2_dir) == [[w2 * w2 * 3, w2, lf, -0.5 / w2, -0.75 / w2**2]
                                  for w2 in w2s]


def _balanced(rows, rng):
    """Coefficients whose columns each contribute O(1) to the rows.  A
    coefficient whose column contributes far less than the others is not
    determined to 1e-12 by double-precision data, whatever the solver."""
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            / max(abs(row[j]) for row in rows) for j in range(len(rows[0]))]


def _apply(rows, coef):
    return [sum(a * c for a, c in zip(row, coef)) for row in rows]


def _rel(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("mode", ["F", "G"])
@pytest.mark.parametrize("w2_dir", DIRECTIONS)
def test_complex_lstsq_matches_mpmath_qr(mode, w2_dir):
    rng = random.Random(7)
    rows = _rows(mode, w2_dir)
    assert len(rows) == 7 and len(rows[0]) == (4 if mode == "F" else 5)
    # an inconsistent right-hand side: balanced signal plus O(1) residual
    values = [v + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for v in _apply(rows, _balanced(rows, rng))]
    with mpmath.workdps(30):
        exact, _ = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(values))
        want = [complex(exact[j]) for j in range(len(rows[0]))]
    got = _complex_lstsq(rows, values)
    assert all(type(c) is complex for c in got)
    assert _rel(got, want) < 1e-12


@pytest.mark.parametrize("mode", ["F", "G"])
def test_complex_lstsq_solves_consistent_system(mode):
    rng = random.Random(11)
    for w2_dir in DIRECTIONS:
        rows = _rows(mode, w2_dir)
        coef = _balanced(rows, rng)
        assert _rel(_complex_lstsq(rows, _apply(rows, coef)), coef) < 1e-12


def test_loglog_slope_recovers_line():
    # |y| = e^0.7 |x|^-1.25 along a complex ray, with an arbitrary phase on y
    xs = [cmath.exp(0.3j) * 0.4 * 1.7**m for m in range(7)]
    ys = [cmath.exp(0.7 + 2j * m) * abs(x) ** -1.25 for m, x in enumerate(xs)]
    slope, dev = fit_loglog_slope(xs, ys)
    assert abs(slope + 1.25) < 1e-12 and dev < 1e-12


def test_loglog_slope_hand_computed():
    # log|x| = 0, 1, 2 and log|y| = 0, 1, 0: the mean line is flat at 1/3
    slope, dev = fit_loglog_slope([1, math.e, math.e**2], [1, math.e, 1])
    assert abs(slope) < 1e-15 and abs(dev - 2 / 3) < 1e-15


def test_zero_value_gives_non_finite_exponent():
    ts = [1.0, 2.0, 4.0, 8.0]
    assert not math.isfinite(fit_loglog_slope(ts, [1.0, 0.0, 1.0, 1.0])[0])
    assert not math.isfinite(fit_loglog_slope(ts, [1.0, 2.0, 0j, 8.0])[0])


def test_slope_needs_two_distinct_abscissae():
    with pytest.raises(ValueError, match="two distinct"):
        fit_loglog_slope([2.0, 2j, -2.0], [1.0, 2.0, 3.0])
