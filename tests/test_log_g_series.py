"""log G by its residue series against the contour and a 30-digit oracle.

`multisine.log_G_series` sums, per pole family 2 pi i k / w_j,
x_j^k / (k prod_{i != j} (q_ji^k - 1)) in double precision with a proved
tail bound and a rounding bound.  The oracle sums the same residues directly
in mpmath, with no folding of the nomes and no reduction of w_i/w_j, so it
shares no step with the package but the formula.  `log_G_value` takes the
series where it converges within its tolerance and the contour otherwise.
"""

import cmath
import math
import sys
from pathlib import Path

import mpmath
import pytest

from conifoldrh import cli, multisine
from conifoldrh.checks import RegionError
from conifoldrh.contour import DEFAULT_TOL, SAFETY
from conifoldrh.multisine import log_G_contour, log_G_series, log_G_value

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

W1, W1T = 1 + 0.1j, 0.95 - 0.07j


def log_G_oracle(z, w1, w1t, w2, dps=30):
    """-sum_j sum_k x_j^k / (k prod_{i != j} (q_ji^k - 1)) at dps digits,
    each family summed until a term is below 10^-(dps-2) of its sum."""
    with mpmath.workdps(dps):
        z, w1, w1t, w2 = (mpmath.mpc(v) for v in (z, w1, w1t, w2))
        zeff = z + (w1 + w1t) / 2
        periods = (w1, w1t, w2)
        total = 0
        for j, a in enumerate(periods):
            x = mpmath.exp(2j * mpmath.pi * zeff / a)
            qs = [mpmath.exp(2j * mpmath.pi * b / a)
                  for i, b in enumerate(periods) if i != j]
            xk, qk, acc, k = x, list(qs), 0, 1
            while True:
                t = xk / (k * (qk[0] - 1) * (qk[1] - 1))
                acc += t
                if k > 5 and abs(t) < mpmath.mpf(10) ** (2 - dps) * max(1, abs(acc)):
                    break
                k += 1
                xk *= x
                qk = [u * q for u, q in zip(qk, qs)]
            total -= acc
        return complex(total)


# ---------------------------------------------------------------------------
# the oracle


@pytest.mark.parametrize("mag", [16 * 2**m for m in range(8)])
def test_series_within_its_bound_at_infinity_fit_points(mag):
    """The points of the G infinity fit of `verify --suite asymptotics`,
    at its tolerance: the series is taken, and its error against the oracle
    is below the bound it returns."""
    z, w2, tol = 0.2 + 0.5j, mag * cmath.exp(-0.3j), 1e-8
    value, bound = log_G_series(z, W1, W1T, w2, tol)
    assert bound <= SAFETY * tol
    assert abs(value - log_G_oracle(z, W1, W1T, w2)) < bound


@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.1j])
def test_series_within_its_bound_in_the_Dn_geometry(z):
    """w1t/w1 = 1 + 1e-6 i: the families of w1 and w1t nearly coincide
    (|q| = exp(-2 pi 1e-6)); the reduced nome keeps their digits."""
    w1 = cmath.exp(0.1j)
    w1t = w1 * (1 + 1e-6j)
    if z == 0.1j:
        z += (w1 - w1t) / 2
    w2 = 2 * cmath.exp(-1.2j)
    value, bound = log_G_series(z, w1, w1t, w2)
    assert abs(value - log_G_oracle(z, w1, w1t, w2)) < bound


# ---------------------------------------------------------------------------
# the contour


def _agree(z, w1, w1t, w2, tol, series_tol=None):
    value, bound = log_G_series(z, w1, w1t, w2, series_tol or tol)
    contour, est = log_G_contour(z, w1, w1t, w2, tol)
    assert abs(value - contour) < bound + est, (z, w1, w1t, w2, tol)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_series_matches_contour_at_quadrature_points(seed):
    """Every log G item of the benchmark's `quadrature` workload, the points
    beyond the panel-budget cliff included, at its own tolerance.  At the
    cliff items of tolerance 3e-11 (|log G| about 2000) the proved bound,
    about 2.5e-11, is above SAFETY * tol: the series is refused there on its
    bound alone, and is compared at 1e-10."""
    items = [it for it in workloads.build("quadrature", seed) if it.kind == "logG"]
    assert {"typical", "cliff"} <= {it.group for it in items}
    for it in items:
        a = it.args
        args = (a["z"], a["w1"], a["w1t"], a["w2"])
        series_tol = None
        if it.group == "cliff" and a["tol"] == 3e-11:
            with pytest.raises(RegionError) as exc:
                log_G_series(*args, a["tol"])
            assert exc.value.failed == ["error bound <= SAFETY*tol"]
            series_tol = 1e-10
        _agree(*args, a["tol"], series_tol)


def test_series_matches_contour_on_the_identity_grids():
    """Every log G argument of the difference and reflection suites."""
    tol = DEFAULT_TOL
    for z, w1, w1t, w2 in cli._difference_points(3):
        for zz in (z, z + w1, z + w1t, z + w2):
            _agree(zz, w1, w1t, w2, tol)
        _agree(z, w1, w1t, -w2, tol)


# ---------------------------------------------------------------------------
# the route


def _falls_back(args, failed):
    with pytest.raises(RegionError) as exc:
        log_G_series(*args)
    assert failed in exc.value.failed
    contour = log_G_contour(*args)
    assert log_G_value(*args) == contour
    multisine.clear_caches()
    assert multisine.log_G_cached(*args) == contour


def test_coincident_periods_take_the_contour():
    """w1 = w1t: the sin_3 ratio of `Z_cs` at beta = 1 (the cs-match row)."""
    z = (1 + 1) / 2 + (1.2 + 0.4j) * (0.8 + 0.3j) - 1
    _falls_back((z, 1 + 0j, 1 + 0j, 1.2 + 0.4j), "w1t/w1 not real")


def test_real_w1_over_w2_takes_the_contour():
    _falls_back((0.3 + 0.4j, W1, W1T, 0.8 * W1), "w2/w1 not real")


def test_divergent_family_takes_the_contour():
    """Im((z + w1bar)/w1t) < 0, so |x_w1t| > 1, while the contour still has
    a rotation."""
    _falls_back((-0.737 - 0.0376j, W1, W1T, 0.922 + 1.305j), "rho_w1t < 1")


def test_bound_above_tolerance_refuses_the_series():
    """At |w2| = 2048 the series' bound (about 1.5e-9) meets 1e-8 but not
    the default 3e-11."""
    args = (0.2 + 0.5j, W1, W1T, 2048 * cmath.exp(-0.3j))
    log_G_series(*args, 1e-8)
    with pytest.raises(RegionError) as exc:
        log_G_series(*args)
    assert exc.value.failed == ["error bound <= SAFETY*tol"]


def test_no_rotation_is_still_a_region_error():
    """Where the contour has no rotation, the series is not taken either,
    although it converges: the route never continues G past its definition."""
    args = (-0.456 + 0.099j, 1.22 + 0.341j, -0.248 + 1.042j, -0.158 - 1.555j)
    multisine._residue_sums(-1, args[0], dict(zip(("w1", "w1t", "w2"), args[1:])),
                            1e-12, "log G")
    with pytest.raises(RegionError, match="angular hull"):
        log_G_value(*args)


# ---------------------------------------------------------------------------
# the kernel's bound


def test_reduction_keeps_relative_digits():
    """b = m a + a small part: e = (b - m a)/a from `_reduce` is within its
    de of the exact rational value, where (b - m a)/a in floating point is
    off by about u |m| / |e|, far more."""
    from fractions import Fraction as Fr
    for m, small in ((1, 1e-6j), (2047, 3e-9 + 2e-9j), (-5, 1e-12j)):
        a = complex(0.8123456789, 0.3456789123)
        b = m * a + small * a
        got_m, e, de = multisine._reduce(b, a)
        assert got_m == m
        num = (Fr(b.real) - m * Fr(a.real), Fr(b.imag) - m * Fr(a.imag))
        den = Fr(a.real) ** 2 + Fr(a.imag) ** 2
        exact = complex((num[0] * Fr(a.real) + num[1] * Fr(a.imag)) / den,
                        (num[1] * Fr(a.real) - num[0] * Fr(a.imag)) / den)
        assert abs(e - exact) <= de


def test_kernel_within_its_bound_on_random_families():
    """`_lambert` on random exact logs (nomes of any argument, near -1 and
    near 1 included): the value is within the returned bound of the
    infinite sum at 30 digits."""
    import math
    import random
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        p = rng.choice([-2, -1, 0, 1, 3])
        las = [complex(-rng.uniform(2e-3, 2.5), rng.uniform(-math.pi, math.pi))
               for _ in range(rng.choice([1, 2]))]
        lu = complex(-rng.uniform(0.02, 2.5), rng.uniform(-math.pi, math.pi))
        K = multisine._lambert_count(p, math.exp(lu.real),
                                     [math.exp(la.real) for la in las], 1e-15)
        if K > 800:
            continue
        value, bound = multisine._lambert(p, lu, las, K, 0.0, [0.0] * len(las))
        with mpmath.workdps(30):
            x = mpmath.exp(mpmath.mpc(lu))
            nomes = [mpmath.exp(mpmath.mpc(la)) for la in las]
            total, xk, ak, k = 0, x, list(nomes), 1
            while True:
                den = 1
                for a in ak:
                    den *= 1 - a
                t = mpmath.mpf(k) ** p * xk / den
                total += t
                if k > K and abs(t) < mpmath.mpf(10) ** -28:
                    break
                k += 1
                xk *= x
                ak = [u * a for u, a in zip(ak, nomes)]
            assert abs(value - complex(total)) <= bound, (p, lu, las)
        checked += 1


# ---------------------------------------------------------------------------
# the nome-shifted kernel and the bounded polylog


def _family_oracle(lu, la, ps=(-2, -1)):
    """sum_k k^p x^k / (1 - a^k), x = e^lu, a = e^la, at 30 digits for each
    p: one direct sum, until a term is below 1e-24 of the sum."""
    with mpmath.workdps(30):
        x, a = mpmath.exp(mpmath.mpc(lu)), mpmath.exp(mpmath.mpc(la))
        totals = dict.fromkeys(ps, 0)
        xk, ak, k = x, a, 1
        while True:
            base = xk / (1 - ak)
            for p in ps:
                totals[p] += mpmath.mpf(k) ** p * base
            if abs(base) / k**2 < mpmath.mpf(10) ** -24 * abs(totals[-2]):
                break
            k += 1
            xk *= x
            ak *= a
        return {p: complex(v) for p, v in totals.items()}


#: (|a|, arg a, x): x = "a" is the z = dw family, whose terms cancel
#: against the other family's; otherwise |x| = 0.98 at argument 1.3
SHIFT_CASES = [(0.9, 0.01, "a"), (0.97, -0.02, "a"), (0.99, 0.004, "a"),
               (0.997, 0.001, "a"), (0.9, 0.3, "x"), (0.99, -2.0, "x"),
               (0.997, 0.7, "x"), (0.97, math.pi - 1e-3, "a"),
               (0.99, -math.pi + 1e-3, "x"), (0.997, math.pi - 1e-4, "x")]


@pytest.mark.parametrize("abs_a,arg_a,x", SHIFT_CASES)
def test_shifted_kernel_within_its_bound(abs_a, arg_a, x):
    """`_family` splits a one-nome family into polylogs and a shifted
    `_lambert`, at p = -2 and -1: its value is within the returned bound
    of the direct 30-digit sum.  Near arg a = +-pi the arguments mu_m of
    the polylogs leave (-pi, pi] and are reduced modulo 2 pi."""
    la = complex(math.log(abs_a), arg_a)
    lu = la if x == "a" else complex(math.log(0.98), 1.3)
    ref = _family_oracle(lu, la)
    for p in (-2, -1):
        K = multisine._lambert_count(p, math.exp(lu.real), [abs_a], multisine.MOMENT_TAIL)
        value, bound = multisine._family(p, lu, [la], K, 0.0, [0.0], multisine.MOMENT_TAIL)
        assert abs(value - ref[p]) <= bound, (p, abs(value - ref[p]), bound)


def test_shifted_kernel_takes_polylogs_where_they_pay(monkeypatch):
    """At the z = dw family of |a| = 0.997 (x = a, so K_a = K) the kernel's
    14,196 terms become S = isqrt(K // c) - 1 polylogs, c = POLYLOG_COST[-2]
    the cost of one Li_2 in kernel terms, plus the shifted kernel, whose rate
    |a|^(S+1) takes it to at most K / (S + 1) terms."""
    la = complex(math.log(0.997), 0.001)
    K = multisine._lambert_count(-2, 0.997, [0.997], multisine.MOMENT_TAIL)
    calls = []
    real_lambert, real_polylog = multisine._lambert, multisine._polylog_exp
    monkeypatch.setattr(multisine, "_lambert",
                        lambda *a: calls.append(("lambert", a[3])) or real_lambert(*a))
    monkeypatch.setattr(multisine, "_polylog_exp",
                        lambda *a: calls.append(("polylog",)) or real_polylog(*a))
    multisine._family(-2, la, [la], K, 0.0, [0.0], multisine.MOMENT_TAIL)
    polylogs = sum(c[0] == "polylog" for c in calls)
    (terms,) = [c[1] for c in calls if c[0] == "lambert"]
    assert K == 14_196 and multisine.POLYLOG_COST[-2] == 10
    assert polylogs == math.isqrt(K // 10) - 1 == 36
    assert terms <= K / (polylogs + 1)


@pytest.mark.parametrize("K,ends", [(1, 1), (2, 2), (5, 3), (400, 5)])
def test_lambert_bounds_each_chord_end_once(monkeypatch, K, ends):
    """`_lambert` evaluates `_term_error` once per distinct (k, cap): once
    at K = 1, once per one-term run, and 5 times over three runs, whose
    first and last ends are eta_1 and eta_K."""
    calls = []
    real = multisine._term_error
    monkeypatch.setattr(multisine, "_term_error",
                        lambda k, *a: calls.append((k, a[-1])) or real(k, *a))
    la = complex(math.log(0.99), 0.3)       # k1 = 5: runs (1, 1), (2, 5), (6, K)
    multisine._lambert(-1, complex(math.log(0.98), 1.3), [la], K, 0.0, [0.0])
    assert len(calls) == len(set(calls)) == ends
    assert calls[0] == (1, 1.0) and calls[-1][0] == K


def test_residue_sums_reduce_each_period_against_the_others(monkeypatch):
    """Each period is reduced against the other periods only: its own ratio
    is exactly (1, 0, 0), so `_reduce(a, a)` is never called."""
    calls = []
    real = multisine._reduce
    monkeypatch.setattr(multisine, "_reduce", lambda b, a: calls.append((b, a)) or real(b, a))
    periods = {"w1": W1, "w1t": W1T, "w2": 0.4 - 0.9j}
    multisine._residue_sums(-1, 0.3 + 0.4j, periods, 1e-12, "test")
    assert len(calls) == 6
    assert set(calls) == {(b, a) for a in periods.values() for b in periods.values() if b != a}


def test_shifted_and_unshifted_kernels_agree():
    """Random one-nome families up to K = 20,000 terms: `_family` and the
    plain `_lambert` agree within the sum of their bounds."""
    import random
    rng = random.Random(5)
    for _ in range(24):
        p = rng.choice([-2, -1])
        la = complex(math.log(rng.uniform(0.9, 0.9985)), rng.uniform(-math.pi, math.pi))
        lu = complex(math.log(rng.uniform(0.9, 0.9985)), rng.uniform(-math.pi, math.pi))
        dlu, dla = 1e-15 * rng.random(), 1e-17 * rng.random()
        K = multisine._lambert_count(p, math.exp(lu.real), [math.exp(la.real)],
                                     multisine.MOMENT_TAIL)
        assert K <= 20_000
        shifted, b1 = multisine._family(p, lu, [la], K, dlu, [dla], multisine.MOMENT_TAIL)
        plain, b0 = multisine._lambert(p, lu, [la], K, dlu, [dla])
        assert abs(shifted - plain) <= b0 + b1, (p, lu, la)


@pytest.mark.parametrize("r", [1e-3, 0.1, 0.5, 0.5 * (1 + 1e-15), 0.7, 0.9, 0.99,
                               0.999, 1 - 1e-6, 1 - 1e-9])
def test_bounded_polylog_within_its_bound(r):
    """`_polylog_exp(s, mu)` for s = 1, 2 against mpmath at 30 digits, over
    arguments across (-pi, pi]; mu is also given with Im mu shifted by
    multiples of 2 pi, where its input error dmu (a few ulps of |mu|) is
    then large, and `polylog(2, x)` returns the same Li_2 value."""
    for arg in (-math.pi + 1e-9, -2.0, -0.5, 0.0, 1e-6, 1.0, 2.5, math.pi):
        x = r * cmath.exp(1j * arg)
        with mpmath.workdps(30):
            xm = mpmath.mpc(r) * mpmath.exp(1j * mpmath.mpf(arg))
            refs = {1: complex(-mpmath.log(1 - xm)), 2: complex(mpmath.polylog(2, xm))}
        for turns in (0, 3, -7):
            mu = complex(math.log(r), arg + 2 * math.pi * turns)
            dmu = 4 * multisine.U * abs(mu)
            for s, ref in refs.items():
                value, bound = multisine._polylog_exp(s, mu, dmu)
                assert abs(value - ref) <= bound, (s, x, turns, abs(value - ref), bound)
                if not turns:
                    assert bound <= 1e-12 * max(1.0, abs(ref))
        assert multisine.polylog(2, x) == multisine._polylog_exp(2, cmath.log(x), 0.0)[0]


# ---------------------------------------------------------------------------
# pinned values: the set-up of each family is arithmetic the bounds rest on


#: `_residue_sums(p, z, periods, tol)` calls of a seed-1 `cli-session` pass,
#: with the (value, bound) of each family as the reprs the series returned
#: when they were recorded; every step of the series is deterministic, so
#: they must come back to the last bit
PINNED_SERIES = [
    # one nome, p = -2, split into Li_2 and a shifted kernel
    ((-2, (0.042087743830000024+0.047026187769j), {'w1': (1.04208774383+0.047026187769j), 'w1t': (0.95791225617-0.047026187769j)}, 1e-16),
     [((0.488797998210678+0.9970295330415626j), 2.5785269732388596e-14),
      ((-0.5064757235859187-0.813830143276737j), 2.2327465870010528e-14)]),
    # one nome, p = -1, split into Li_1 and a shifted kernel
    ((-1, (0.230126+0.456772j), {'w1': (1.115841+0.158322j), 'w1t': (1.036221-0.170875j)}, 1e-16),
     [((-0.023775589286909708+0.03880308239529483j), 4.079399780252156e-15),
      ((-0.011905756718681508-0.019320902284001795j), 2.753130925606343e-16)]),
    # z = dw, p = -2: about 15,000 terms unsplit
    ((-2, (0.0004141655253697696+0.00021988572053490178j), {'w1': (1.0004141655253698+0.00021988572053490178j), 'w1t': (0.9995858344746302-0.00021988572053490178j)}, 1e-16),
     [((94.83778470402595+180.2687521676208j), 1.5961267700711883e-12),
      ((-94.83778769908757-180.07743744593873j), 1.5930592845274694e-12)]),
    # z = dw, p = -1
    ((-1, (0.0004141655253697696+0.00021988572053490178j), {'w1': (1.0004141655253698+0.00021988572053490178j), 'w1t': (0.9995858344746302-0.00021988572053490178j)}, 1e-16),
     [((127.41513382446028+246.14889000267092j), 2.4872585197538606e-12),
      ((-127.41554779925465-245.8873106296238j), 2.4744405509014116e-12)]),
    # one nome, p = -2, below the split
    ((-2, (0.230126+0.456772j), {'w1': (1.115841+0.158322j), 'w1t': (1.036221-0.170875j)}, 1e-16),
     [((-0.02352075672886678+0.03910737467935504j), 7.235351561760692e-16),
      ((-0.011946633626245902-0.019230843624669553j), 2.730343686720723e-16)]),
    # one nome, p = 0
    ((0, (0.3+0.4j), {'w1': (1+0.1j), 'w1t': (0.95-0.07j)}, 1e-16),
     [((-0.0713011242245899+0.0458187636562078j), 1.315647066882363e-15),
      ((0.02272506882316093-0.044761743091615076j), 6.394084453650876e-16)]),
    # log G, two nomes
    ((-1, (0.320378+0.394244j), {'w1': (1.122342+0.07629j), 'w1t': (0.928693-0.07062j), 'w2': (0.179239-0.612163j)}, 5.625e-14),
     [((-0.0017856295873914727+0.0024131923406243583j), 7.026393314609116e-17),
      ((-0.00012850961094695466-0.0006464942560510586j), 1.567549782131114e-17),
      ((9.924658464058497e-07-2.8214112443095537e-08j), 4.078549372135708e-20)]),
    # log G, two nomes, 596 terms
    ((-1, (0.2+0.5j), {'w1': (1+0.1j), 'w1t': (0.95-0.07j), 'w2': (122.28307060807757-37.82658645265146j)}, 5.625000000000001e-10),
     [((2.548735292584299e-137-2.0275297544541823e-138j), 1.633332699110168e-149),
      ((1.3326442674870906e-85-1.2974510181594062e-84j), 5.117367638802531e-97),
      ((-408.7794819427202+293.65121660895943j), 6.661047788515459e-12)]),
]


@pytest.mark.parametrize("args,families", PINNED_SERIES)
def test_residue_sums_return_their_pinned_values_and_bounds(args, families):
    got = multisine._residue_sums(*args, "pinned")
    assert [a for a, _, _ in got] == list(args[2].values())
    assert [(repr(v), repr(b)) for _, v, b in got] == [(repr(v), repr(b)) for v, b in families]


@pytest.mark.parametrize("args,message,failed", [
    ((-1, 0.3 + 0.4j, {"w1": W1, "w1t": W1T, "w2": 0.8 * W1}, 1e-12, "log G residue series"),
     "log G residue series undefined; region violation: w2/w1 not real, w1/w2 not real",
     ["w2/w1 not real", "w1/w2 not real"]),
    ((-2, 1e-4 + 5e-5j, {"w1": 1.0001 + 5e-5j, "w1t": 0.9999 - 5e-5j}, 1e-16,
      "g-moment residue series"),
     "g-moment residue series (impractically slow: 70384 terms) undefined; "
     "region violation: terms < 20000",
     ["terms < 20000"]),
])
def test_residue_sums_refusals_keep_their_messages(args, message, failed):
    """A real ratio and a family past the term budget are refused with
    every failed predicate named."""
    with pytest.raises(RegionError) as exc:
        multisine._residue_sums(*args)
    assert str(exc.value) == message
    assert exc.value.failed == failed


def test_gamma_constants_equal_gamma():
    for n in (2, 3, 4, 5, 6, 8, 13, 14, 16, 17):
        assert getattr(multisine, f"_G{n}") == multisine._gamma(n)
