"""The double/triple sine layer: F and G with their integral representations,
product expansions, moment integrals, exponential prefactors and asymptotics.

F(z | w1bar, w2) is the double sine with the exp(-pi i/2 B_{2,2}) prefactor
absorbed, G(z | w1, w1t, w2) the triple sine (arguments shifted by w1bar) with
the exp(pi i/6 B_{3,3}) prefactor absorbed; both then admit plain contour
integral representations

    log F = int_C e^(zs) / ((e^(w1bar s)-1)(e^(w2 s)-1)) ds/s,
    log G = int_C -e^((z+w1bar) s) / ((e^(w1 s)-1)(e^(w1t s)-1)(e^(w2 s)-1)) ds/s,

over the real line with an upper semicircle at the origin, rotated into the
admissible wedge.  Closing the same contour on the poles 2 pi i k / w_j
gives log G as a residue series; `log_G_value` takes it where it converges
within the tolerance, and the contour elsewhere.  The starred functions F*,
G* multiply in Laurent-in-w2 prefactors Q_F, Q_G built from the k = 0, 1
moment integrals so that both tend to 1 as w2 -> 0 and grow at most
polynomially as w2 -> infinity.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

from .bernoulli import (bernoulli_numbers, bernoulli_poly, multiple_bernoulli,
                        tangent_numbers, zeta_int)
from .checks import (Predicate, RegionError, Residual, im_ratio,
                     im_ratio_predicate, require)
from .contour import (DEFAULT_TOL, SAFETY, QuadratureError, choose_outer_cutoff,
                      detour_integral, hull_rotation)

TWO_PI_I = 2j * math.pi

#: fraction of the distance to the nearest integrand pole used for the
#: origin semicircle; large enough that the principal-part cancellation
#: between the two half-lines stays benign in double precision
EPS_POLE_FRACTION = 0.45

#: factors one q-product may take before it is reported as not converging
MAX_FACTORS = 200_000

#: entries the memo store keeps (least recently used evicted first); a full
#: `verify --suite all` fills about 300
CACHE_SIZE = 4096


class PoleZeroError(ArithmeticError):
    """Evaluation lands on (or too near) a lattice zero/pole."""


# ---------------------------------------------------------------------------
# the one integrand


def _integrand(sign: int, zeff: complex, omegas: tuple, k: int):
    """The two branch-free forms (lower, upper) of
    s -> sign e^(zeff s) s^k / prod_i (e^(w_i s) - 1).

    Both are K e^(alpha s) s^k / prod_b (e^(b s) - 1), one factor per period:
      lower: alpha = zeff, b = w, K = sign;
      upper: alpha = zeff - sum(w), b = -w, K = sign (-1)^m (m counts the
        periods), from 1/(e^a - 1) = -e^(-a)/(e^(-a) - 1).
    With Re(c w) > 0 for every period, every exponent of `lower` has a
    negative real part on c[-R, -eps] and every exponent of `upper` on
    c[eps, R], so each form is overflow-safe on its half-line; on the arc
    |w s| <= 2 pi EPS_POLE_FRACTION and `lower` serves.  s^-1 is a division
    by s, the form of the log integrands."""
    exp, log = cmath.exp, k == -1

    def form(K: complex, alpha: complex, periods: tuple):
        def integrand(s: complex) -> complex:
            den = K
            for b in periods:
                den *= exp(b * s) - 1
            value = exp(alpha * s) / den
            return value / s if log else value * s ** k
        return integrand

    return (form(sign + 0j, zeff, omegas),
            form(sign * (-1) ** len(omegas) + 0j, zeff - sum(omegas),
                 tuple(-w for w in omegas)))


def _contour(sign: int, zeff: complex, omegas: tuple, k: int, tol: float = DEFAULT_TOL,
             names: list[str] | None = None) -> tuple[complex, float]:
    """Integral of `_integrand(sign, zeff, omegas, k)` over the detour
    contour rotated by c: `lower` on c[-R, -eps] and the arc, `upper` on
    c[eps, R].

    The integrand decays along both half-lines and no pole is crossed when
    every w_i, zeff and sum(w) - zeff lie in the right half-plane of c, and
    the value does not depend on c there; hull_rotation picks the c of
    widest margin.  The semicircle radius is EPS_POLE_FRACTION of the
    distance to the nearest pole 2 pi i / w of the integrand, the outer
    cutoff the first radius where it is negligible.
    """
    lower, upper = _integrand(sign, zeff, omegas, k)
    c, _ = hull_rotation([*omegas, zeff, sum(omegas) - zeff], names)
    eps = EPS_POLE_FRACTION * 2 * math.pi / max(abs(w) for w in omegas)
    cbar = c.conjugate()
    R = choose_outer_cutoff(
        lambda s: upper(s) if (s * cbar).real > 0 else lower(s), c, eps, tol)
    return detour_integral(lower, upper, eps, R, c, tol)


def log_F_contour(z: complex, w1bar: complex, w2: complex,
                  tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    """log F(z | w1bar, w2) by rotated-contour quadrature.

    Valid when a rotation c exists with Re(c w1bar) > 0, Re(c w2) > 0 and
    0 < Re(c z) < Re(c (w1bar + w2)).
    """
    return _contour(1, z, (w1bar, w2), -1, tol,
                    ["Re(c*w1bar)>0", "Re(c*w2)>0", "Re(c*z)>0",
                     "Re(c*(w1bar+w2-z))>0"])


#: names of the directions log G needs in one half-plane
_G_DIRECTIONS = ["Re(c*w1)>0", "Re(c*w1t)>0", "Re(c*w2)>0",
                 "Re(c*(z+w1bar))>0", "Re(c*(w1bar+w2-z))>0"]


def log_G_contour(z: complex, w1: complex, w1t: complex, w2: complex,
                  tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    """log G(z | w1, w1t, w2) by rotated-contour quadrature.

    Valid when a rotation c exists making all of (w1, w1t, w2) and the strip
    directions z + w1bar, w1bar + w2 - z lie in the right half-plane.
    """
    return _contour(-1, z + (w1 + w1t) / 2, (w1, w1t, w2), -1, tol, _G_DIRECTIONS)


# ---------------------------------------------------------------------------
# memo store


@lru_cache(maxsize=CACHE_SIZE)
def _memo(signs: tuple, fn, *args):
    return fn(*args)


def _cached(fn, *args):
    """fn(*args), remembered under the key (fn, *args): every argument,
    including a tolerance, selects its own entry, and a call that raises
    stores nothing.  0.0 == -0.0 as a key, but a phase (and so a contour
    rotation) tells them apart, so the sign of each part of every real or
    complex argument joins the key."""
    signs = tuple(math.copysign(1.0, x) for a in args
                  if isinstance(a, (float, complex)) for x in (a.real, a.imag))
    return _memo(signs, fn, *args)


def log_G_cached(z: complex, w1: complex, w1t: complex, w2: complex,
                 tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    return _cached(log_G_value, z, w1, w1t, w2, tol)


def clear_caches() -> None:
    """Empty the memo store."""
    _memo.cache_clear()


# ---------------------------------------------------------------------------
# q-products


def _qprod(u: complex, q: complex, tol: float, where: str) -> complex:
    """prod_{k>=0} (1 - u q^k) for |q| < 1.

    Truncated once the log-tail bound 2 |u q^K| / (1 - |q|) < tol holds (using
    |log(1-v)| <= 2|v| for |v| <= 1/2); factors within 1e3 tol of zero are
    flagged as a zero of the product rather than multiplied, and a product
    still above the bound after MAX_FACTORS factors raises.
    """
    aq = abs(q)
    out = 1 + 0j
    for _ in range(MAX_FACTORS):
        if abs(u) <= 0.5 and 2 * abs(u) / (1 - aq) < tol:
            return out
        d = 1 - u
        if abs(d) < 1e3 * tol:
            raise PoleZeroError(f"near-vanishing factor in {where}: |1-u| = {abs(d):.3e}")
        out *= d
        u *= q
    raise QuadratureError(
        f"{where}: q-product not converged after {MAX_FACTORS} factors "
        f"(|q| = {aq:.9f}, tail bound {2 * abs(u) / (1 - aq):.3e} > tol {tol:g})")


def _qprod2(u: complex, a: complex, b: complex, tol: float, where: str) -> complex:
    """prod_{k,j>=0} (1 - u a^k b^j) for |a|, |b| < 1: one `_qprod` row in b
    per power of a, until the tail bound 2 |u a^K| / ((1 - |a|)(1 - |b|)) < tol
    holds.  A product whose rows would need more than MAX_FACTORS factors in
    all raises before the row that would exceed it."""
    bound = (1 - abs(a)) * (1 - abs(b))
    out = 1 + 0j
    work = 0.0
    for _ in range(MAX_FACTORS):
        if abs(u) <= 0.5 and 2 * abs(u) / bound < tol:
            return out
        work += _qprod_factors(u, b, tol)
        if work > MAX_FACTORS:
            break
        out *= _qprod(u, b, tol, where)
        u *= a
    raise QuadratureError(
        f"{where}: double q-product not converged within {MAX_FACTORS} factors "
        f"(|a| = {abs(a):.9f}, |b| = {abs(b):.9f}, tol {tol:g})")


def qdilog_numeric(x: complex, q: complex, tol: float = 1e-12) -> complex:
    """E_q(x) = prod_{k>=0} (1 - x q^k) for |q| < 1."""
    require([Predicate("|q| < 1", 1 - abs(q))], "qdilog_numeric")
    return _qprod(complex(x), q, tol, "qdilog_numeric")


# ---------------------------------------------------------------------------
# product expansion of F


def F_product(z: complex, w1bar: complex, w2: complex, tol: float = 1e-12) -> complex:
    """Product expansion of F, convergent for Im(w1bar/w2) > 0:

    F = prod_{k>=1} (1 - x1 q1^(-k))^(-1) * prod_{k>=0} (1 - x2 p^k),
    p = (q2 q2t)^(1/2) = exp(2 pi i w1bar / w2).  Admitted where, besides,
    both q-products stop within MAX_FACTORS factors (`_qprod_factors`); that
    count is read only once |q1^(-1)|, |p| < 1, as the families may overflow
    outside.
    """
    require([im_ratio_predicate("w1bar/w2", w1bar, w2)], "product expansion of F")
    families = _F_families(z, w1bar, w2)
    require([Predicate(f"q-product factors < {MAX_FACTORS}",
                       MAX_FACTORS - max(_qprod_factors(u, q, tol) for u, q in families))],
            "product expansion of F")
    (u1, q1inv), (x2, p) = families
    inv = _qprod(u1, q1inv, tol, "F product (x1 family)")
    return _qprod(x2, p, tol, "F product (x2 family)") / inv


def _F_families(z: complex, w1bar: complex, w2: complex):
    """(u, q) of the two q-products of F_product: (x1 q1^(-1), q1^(-1)), (x2, p)."""
    q1inv = cmath.exp(-TWO_PI_I * w2 / w1bar)
    return ((cmath.exp(TWO_PI_I * z / w1bar) * q1inv, q1inv),
            (cmath.exp(TWO_PI_I * z / w2), cmath.exp(TWO_PI_I * w1bar / w2)))


def _qprod_factors(u: complex, q: complex, tol: float) -> float:
    """Factors `_qprod(u, q, tol)` multiplies before its stop rule holds."""
    au, aq = abs(u), abs(q)
    if aq >= 1:
        return math.inf
    need = min(0.5, tol * (1 - aq) / 2)
    if au < need:
        return 0.0
    return math.log(au / need) / -math.log(aq) if aq > 0 else 1.0


def F_value(z: complex, w1bar: complex, w2: complex, tol: float = 1e-12) -> complex:
    """F by product expansion when `F_product` admits either parameter
    ordering (the contour representation is symmetric in (w1bar, w2)), else
    by contour: near |p| = 1 or |q1^(-1)| = 1 the contour is used.
    """
    for a, b in ((w1bar, w2), (w2, w1bar)):
        try:
            return F_product(z, a, b, tol)
        except RegionError:
            pass
    val, _ = log_F_contour(z, w1bar, w2, max(1e-13, tol * 1e-2))
    return cmath.exp(val)


# ---------------------------------------------------------------------------
# residue series


#: terms one family of `_residue_sums` may take before the series is
#: declared impractically slow and the contour or quadrature is taken
MAX_LAMBERT_TERMS = 20_000

#: tail each g-moment family may leave, before its prefactor
MOMENT_TAIL = 1e-16

#: unit roundoff of binary64 round-to-nearest
U = sys.float_info.epsilon / 2


def _gamma(n: float) -> float:
    """gamma_n = n u / (1 - n u): the relative error of a chain of n
    roundings (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return n * U / (1 - n * U)


#: gamma_n of the fixed operation counts below
_G2, _G3, _G4, _G5, _G6, _G8, _G13, _G14, _G16, _G17 = map(
    _gamma, (2, 3, 4, 5, 6, 8, 13, 14, 16, 17))


# Rounding bounds below count the operations of each step in these units:
# a complex sum or a real-by-complex product is one rounding per part, so
# relative u; a complex product (x.re y.re - x.im y.im, ...) is within
# sqrt(5) u < gamma_3 (Brent, Percival and Zimmermann 2007); CPython divides
# complex numbers by Smith's method, whose ratio r has |r| <= 1 and whose
# denominator is at least |b|, which gives 2 gamma_3 + gamma_4 < gamma_11;
# exp, expm1, log, log1p, atan2, sin, cos and pow are taken within 1 ulp
# (2u), as glibc documents, so cmath.exp is within gamma_5, and cmath.log(w)
# (log1p of (|w|^2 - 1) from three rounded products where |w| is near 1,
# else log of hypot; atan2) is within gamma_16 (1 + |log w|) absolutely.


def _lambert_terms(order: int, aw: float, tol: float) -> float:
    """Terms past the peak order/(-ln|w|) of n^order |w|^n after which
    n^max(order,0) |w|^n <= tol: the first n with that property."""
    if aw <= 0:
        return 0.0
    lw, ltol = -math.log(aw), math.log(tol)
    p = max(order, 0)
    n = max(p / lw, 1.0, -ltol / lw)
    # n -> (p ln n - ln tol)/lw rises monotonically to the crossing past the peak
    for _ in range(8 if p else 0):
        n = max(n, (p * math.log(n) - ltol) / lw)
    return n


def _expm1(x: complex) -> tuple[complex, float]:
    """e^x - 1 without the cancellation of cmath.exp(x) - 1 at small |x|, and
    a bound on its rounding error: each part of its real part is within
    gamma_5, their difference adds u, the imaginary part is within gamma_5."""
    h = math.sin(x.imag / 2)
    em1, ex, sn = math.expm1(x.real), math.exp(x.real), math.sin(x.imag)
    return (complex(em1 * math.cos(x.imag) - 2 * h * h, ex * sn),
            _G6 * (abs(em1) + 2 * h * h + ex * abs(sn)))


def _tail_den(p: int, rho: float, amods: list[float], K: int) -> float:
    """(1 - r) prod_i (1 - |a_i|^(K+1)), r = rho max(1, ((K+2)/(K+1))^p): the
    denominator of `_lambert`'s tail bound past K terms.  It grows with K."""
    den = 1 - rho * max(1.0, ((K + 2) / (K + 1)) ** p)
    for am in amods:
        den *= 1 - am ** (K + 1)
    return den


def _lambert_count(p: int, rho: float, amods: list[float], tol: float) -> int:
    """Terms K after which `_lambert`'s tail bound is at most tol: the count
    of the numerators k^p rho^k alone, taken again at tol times the tail's
    denominator there.  The denominator only grows with K, so the second
    count is enough."""
    K = math.ceil(_lambert_terms(p, rho, tol))
    return math.ceil(_lambert_terms(p, rho, tol * _tail_den(p, rho, amods, K)))


def _term_error(k: float, dlu: float, nomes: list[tuple], gops: float, cap: float) -> float:
    """Relative error bound eta(k) of `_lambert`'s computed k-th term
    k^p x^k / prod_i d_i,k, d_i,k = 1 - a_i^k, against the exact term.

    x^k, k - 1 products of cmath.exp(l), |l - log x| <= dl, is within
    e^(k dl) (1 + gamma_(5k + 3(k-1))) - 1, the term's own ops roundings
    gops = gamma_ops.  Each nome is (alpha, kappa, rho1, dla): alpha >= |a|,
    d_1 within rho1, kappa >= |1 - a|/(1 - |a|).  d_k = d_(k-1) + a^(k-1) d_1
    gathers, over its k - 1 steps, the errors |a^j d_1| w_j of the products
    (w_j from a^j, d_1 and one complex product) and u |d_j| of the sums.
    With |d_j| <= |d_1| s_k, s_k = sum_(j<k) |a|^j, this is at most
    |d_1| s_k (rho1/s_k + alpha w_k + 2 k u), and d_k = d_1 sum_(j<k) a^j
    is at least |d_1| s_k / c with c = kappa (from |d_k| >= 1 - |a|^k) or,
    where the caller knows the arguments of the a^j to spread by at most
    2 phi, c = sec(phi) = cap.  So d_k is within r_k = min(kappa, cap)
    (rho1 + alpha w_k + 2 k u), and d_1 within r_1 = rho1; 1/d_k is within
    r_k/(1 - r_k).  For k >= 2 every piece is convex and increasing in k,
    so eta is."""
    g = 1 + _gamma(8 * k)
    eta = (1 + (math.exp(k * dlu) * g - 1)) * (1 + gops)
    for alpha, kappa, rho1, dla in nomes:
        w = (1 + (math.exp(k * dla) * g - 1)) * (1 + rho1) * (1 + _G3) - 1
        r = rho1 if k == 1 else min(kappa, cap) * (rho1 + alpha * w + 2 * k * U)
        if r >= 0.5:
            return math.inf
        eta /= 1 - r
    return eta - 1


def _nome(la: complex, dla: float) -> tuple[complex, complex, tuple]:
    """a = e^la, d = 1 - a and the (alpha, kappa, rho1, dla) of
    `_term_error`, for la within dla of the exact log."""
    m, err = _expm1(la)
    a, d = cmath.exp(la), -m
    alpha = abs(a) * math.exp(dla) / (1 - _G5)
    err += alpha * math.expm1(dla)
    if alpha >= 1 or abs(d) <= err:
        return a, d, (alpha, math.inf, math.inf, dla)
    return a, d, (alpha, (abs(d) + err) / (1 - alpha), err / (abs(d) - err), dla)


#: half-spread of the arguments of a^j, j < k, up to which `_lambert` bounds
#: |1 - a^k| from below by cos(SPREAD) sum_(j<k) |a^j (1 - a)|
SPREAD = math.pi / 5
_SEC_SPREAD = 1 / math.cos(SPREAD)


def _lambert(p: int, lu: complex, las: list[complex], K: int, dlu: float,
             dlas: list[float]) -> tuple[complex, float]:
    """The family kernel sum_{k=1..K} k^p e^(k lu) / prod_i (1 - e^(k la_i))
    over one or two nomes a_i = e^(la_i), |a_i| < 1, with |e^lu| < 1, where
    lu and la_i are within dlu and dla_i of the exact logs; the value and its
    error bound: the tail past K plus the rounding.  `_family` also runs it
    on the shifted family x a^S, whose rate |x| |a|^S is far from 1 even
    where |x| and |a| are near it: the split 1/(1 - a^k) =
    sum_(m<S) a^(km) + a^(kS)/(1 - a^k) moves the first S rows of the
    geometric series into polylogs, and the bound here is that of the
    shifted kernel alone.

    1 - a^k is accumulated from 1 - a = -expm1(la) as
    (1 - a^(k-1)) + a^(k-1) (1 - a), so a nome near 1 keeps its digits, and
    the terms are summed with Neumaier's compensation (Knuth's two-sum, which
    complex addition applies to each part), keeping no list of terms.  The
    rounding part is sum_k eta_k |t_k| over the computed terms, eta_k from
    `_term_error` taken on its chord over each run of k with one cap (the
    chord lies above it since eta is convex): up to k1, where the arguments
    (k - 1) arg(a_i) spread by 2 SPREAD, and past it.  The compensated sum
    adds its own u|s| + gamma_K^2 sum|t_k| per part (Ogita, Rump and Oishi
    2005, Prop. 4.5)."""
    x = cmath.exp(lu)
    a1, d1, n1 = _nome(las[0], dlas[0])
    nomes, gops = [n1], _G14            # k^p x^k and the division
    arg = abs(las[0].imag) + dlas[0]
    if len(las) == 2:
        a2, d2, n2 = _nome(las[1], dlas[1])
        nomes, gops = [n1, n2], _G17    # and d_1 d_2
        arg = max(arg, abs(las[1].imag) + dlas[1])
    k1 = max(1, min(K, 1 + math.floor(2 * SPREAD / arg) if arg else K))
    chords, ends = [], []
    for lo, hi, cap in ((1, 1, 1.0), (2, k1, _SEC_SPREAD), (k1 + 1, K, math.inf)):
        if lo > min(hi, K):
            continue
        e_lo = _term_error(lo, dlu, nomes, gops, cap)
        e_hi = _term_error(hi, dlu, nomes, gops, cap) if hi > lo else e_lo
        slope = (e_hi - e_lo) / max(hi - lo, 1)
        chords.append((lo, hi, e_lo - slope * lo, slope))
        ends += [e_lo, e_hi]
    # the runs start at k = 1 and end at K: eta_1 and eta_K are chord ends
    eta1, etaK = (ends[0], ends[-1]) if ends else (1.0, 0.0)
    xk, a1k, d1k = x, a1, d1
    if len(las) == 2:
        a2k, d2k = a2, d2
    s = comp = 0j
    mag = 0.0
    for lo, hi, base, slope in chords:
        if len(las) == 1:
            for k in range(lo, hi + 1):
                t = k ** p * xk / d1k
                mag += (base + slope * k) * abs(t)
                u = s + t
                v = u - s
                comp += (s - (u - v)) + (t - v)
                s = u
                xk *= x
                d1k += a1k * d1
                a1k *= a1
        else:
            for k in range(lo, hi + 1):
                t = k ** p * xk / (d1k * d2k)
                mag += (base + slope * k) * abs(t)
                u = s + t
                v = u - s
                comp += (s - (u - v)) + (t - v)
                s = u
                xk *= x
                d1k += a1k * d1
                a1k *= a1
                d2k += a2k * d2
                a2k *= a2
    s += comp
    if etaK >= 1:
        return s, math.inf
    # past K (beyond the peak of k^p rho^k) each 1/(1 - |a_i|^k) is at most
    # its value at K + 1 and the terms k^p rho^k fall at least by the ratio r
    rho = abs(x) * math.exp(dlu) / (1 - _G5)
    den = _tail_den(p, rho, [nome[0] for nome in nomes], K)
    tail = (K + 1) ** p * rho ** (K + 1) / den if den > 0 else math.inf
    rounding = (mag / (1 - etaK) + _G2 * abs(s)
                + 3 * _gamma(K) ** 2 * mag / eta1)
    # the bound's own evaluation rounds: K + 8 operations deep at most
    return s, (tail + rounding) * (1 + _gamma(K + 8))


#: |x| above which Li_2(x) takes its series in mu = log x: up to it the
#: power series needs at most 44 terms, and beyond it
#: |mu| <= |log 2 + i pi| < 3.3, so the series in mu shrinks by
#: (|mu| / 2 pi)^2 < 0.28 per nonzero term
LI2_SWITCH = 0.5


@lru_cache(maxsize=None)
def _li2_log_coeffs() -> tuple[tuple[int, float], ...]:
    """(k, zeta(2-k)/k!) for 2 <= k <= 64 where nonzero: c_2 = -1/4 and
    c_(2m+1) = (-1)^m T_m / (4^m (4^m - 1) (2m+1)!) for m = 1..31, from the
    tangent numbers T_m that give the Bernoulli numbers too, each one
    correctly rounded int/int division.
    At |mu| = 3.3 the term of k = 61 is 3e-20."""
    return ((2, -0.25), *((2 * m + 1, (-1) ** m * t
                           / (4 ** m * (4 ** m - 1) * math.factorial(2 * m + 1)))
                          for m, t in enumerate(tangent_numbers(31), 1)))


def _polylog_exp(s: int, mu: complex, dmu: float) -> tuple[complex, float]:
    """Li_s(e^mu) for s = 1, 2 and Re mu < 0, where mu is within dmu of the
    exact log; the value and its error bound.

    Im mu is first reduced modulo 2 pi.  Li_1(e^mu) = -log(-expm1(mu)).
    Li_2 is the power series sum_m e^(m mu)/m^2 where |e^mu| <= LI2_SWITCH
    (its tail past M terms at most |e^mu|^(M+1)/((M+1)^2 (1 - |e^mu|))),
    and elsewhere the series in mu, valid for |mu| < 2 pi (here |mu| < 3.3),

        Li_2(e^mu) = zeta(2) + mu (1 - log(-mu)) + sum_(k>=2) c_k mu^k,

    c_k = zeta(2-k)/k!, with |c_k| <= 4/(k (k-1) (2 pi)^(k-1)) from
    |B_n| = 2 n! zeta(n)/(2 pi)^n, so that its tail past k is at most
    8 pi r^(k+1)/(k (k+1) (1 - r)), r = |mu|/(2 pi).  Each series stops once
    its tail is below u times its sum.  The bound is that tail, the counted
    rounding, and dmu times a bound of |Li_(s-1)| on the disc of radius dmu
    about mu: |Li_1(y)| <= -log(1 - |y|), and |Li_0(y)| = |y|/|1 - y| with
    |1 - y| bounded below by the computed 1 - e^mu less its errors."""
    n = round(mu.imag / (2 * math.pi))
    if n:
        # 2 pi n is within gamma_2 |2 pi n| <= gamma_2 2 |Im mu|, the
        # difference rounds once more
        dmu += _G8 * abs(mu.imag)
        mu = complex(mu.real, mu.imag - n * 2 * math.pi)
    # |e^mu'| on the disc, past the rounding of the exponent and of exp
    r = math.exp(mu.real + dmu + _G2 * abs(mu.real)) * (1 + _G2)
    if s == 1:
        d, dd = _expm1(mu)
        d = -d
        log_d = cmath.log(d)
        # on the disc |1 - e^mu'| >= |d| - dd - r expm1(dmu)
        gap = abs(d) - dd - r * math.expm1(dmu)
        if r >= 1 or gap <= 0:
            return -log_d, math.inf
        return -log_d, ((dd / (abs(d) - dd) + _G16 * (1 + abs(log_d))
                         + dmu * r / gap) * (1 + _G8))
    prop = dmu * -math.log1p(-r) if r < 1 else math.inf
    mag = wmag = 0.0
    if mu.real <= math.log(LI2_SWITCH):
        y = cmath.exp(mu)
        ay = math.exp(mu.real) * (1 + _G2)
        acc, yk, ayk, m = 0j, y, ay, 0
        while True:
            m += 1
            t = yk / (m * m)
            acc += t
            mag += abs(t)
            wmag += m * abs(t)
            ayk *= ay
            tail = ayk / ((m + 1) ** 2 * (1 - ay))
            if tail <= U * abs(acc):
                break
            yk *= y
        # term j: y within gamma_5, j - 1 products and the division, within
        # gamma_(9j); the sum of m terms, gamma_(2m) of their moduli; each
        # gamma_n <= n u/(1 - N u) for the largest count N
        rounding = (9 * wmag + 2 * m * mag) * U
        return acc, (tail + rounding + prop) / (1 - (9 * m + 16) * U)
    log_mu = cmath.log(-mu)
    head = mu * (1 - log_mu)
    z2 = zeta_int(2)
    acc = z2 + head
    rho = abs(mu) / (2 * math.pi) * (1 + _G3)
    stop = U * abs(acc) * (1 - rho) / (8 * math.pi)
    steps = {1: (mu, rho), 2: (mu * mu, rho * rho)}
    pw, rk, j = 1 + 0j, rho, 0      # mu^j and rho^(j+1)
    for k, c in _li2_log_coeffs():
        step, rstep = steps[k - j]
        pw *= step
        rk *= rstep
        j = k
        t = c * pw
        acc += t
        at = abs(t)
        mag += at
        wmag += k * at
        if rk <= stop * k * (k + 1):
            break
    tail = 8 * math.pi * rk / (k * (k + 1) * (1 - rho))
    # zeta(2) = pi^2/6 within gamma_3; log(-mu) within gamma_16 (1 + |log|),
    # 1 - log and the product with mu gamma_5; mu^k by k - 1 complex
    # products, so c_k mu^k within gamma_(3k); the sum of its at most k + 2
    # items within gamma_(2k+4) of their moduli
    rounding = (3 * z2 + abs(mu) * (16 * (1 + abs(log_mu)) + 5 * abs(1 - log_mu))
                + 3 * wmag + (2 * k + 4) * (z2 + abs(head) + mag)) * U
    return acc, (tail + rounding + prop) / (1 - (3 * k + 16) * U)


def _reduce(b: complex, a: complex) -> tuple[int, complex, float]:
    """(m, e, de): m the integer nearest Re(b/a), e = (b - m a)/a and a
    bound de on its error.  b - m a is formed exactly and rounded once (m
    times the two 26-bit halves of each part of a is exact for |m| < 2^26),
    so e keeps its relative digits however near b/a is to m: de =
    gamma_13 |e| from that rounding and the division."""
    m = round((b / a).real)
    require([Predicate("|m| < 2^26 in w_i/w_j = m + e", 2.0**26 - abs(m))],
            "period reduction")
    ar, ai = a.real, a.imag
    cr, ci = 134217729.0 * ar, 134217729.0 * ai     # Veltkamp split at 2^27 + 1
    hr, hi = cr - (cr - ar), ci - (ci - ai)
    e = complex(math.fsum((b.real, -m * hr, -m * (ar - hr))),
                math.fsum((b.imag, -m * hi, -m * (ai - hi)))) / a
    return m, e, _G13 * abs(e)


#: time of one Li_(-p) of `_polylog_exp` over that of one `_lambert` term,
#: measured in process over the polylog arguments of a seed-1 `cli-session`
#: pass (medians of 11 interleaved rounds: Li_1 5.1, Li_2 10.0)
POLYLOG_COST = {-1: 5, -2: 10}


def _family(p: int, lu: complex, las: list[complex], K: int, dlu: float,
            dlas: list[float], tol: float) -> tuple[complex, float]:
    """The family kernel of `_lambert` with its tail at most tol, K the
    count of that tail; the value and its error bound.

    Over one nome a = e^la, at p = -1 and -2, the geometric series splits
    exactly as 1/(1 - a^k) = sum_(m<S) a^(km) + a^(kS)/(1 - a^k), so that

        sum_k k^p x^k/(1 - a^k) = sum_(m<S) Li_(-p)(x a^m)
                                  + sum_k k^p (x a^S)^k/(1 - a^k),

    x = e^lu.  The shifted kernel is `_lambert` again, at its own count: it
    converges at the rate |x| |a|^S and so takes about 1/(1/K + S/K_a)
    terms, K_a the count at x = a.  With one Li_(-p) costing c_p =
    POLYLOG_COST[p] kernel terms, S = isqrt(K_a // c_p) - K_a // K minimises
    the work c_p S + 1/(1/K + S/K_a) (S = isqrt(K // c_p) - 1 where x = a,
    the z = dw moments); Li_2 is taken only at arguments past LI2_SWITCH,
    where its power series would take as many terms as the kernel.  Two
    nomes, any other p, and S <= 0 run `_lambert` alone.  The bound is the
    sum of the parts' bounds, each part at mu_m = lu + m la within
    dlu + m dla and the gamma_3 of forming it, plus the rounding of their
    correctly rounded sum (`math.fsum`)."""
    S = 0
    if len(las) == 1 and p in (-2, -1):
        (la,), (dla,) = las, dlas
        ra = math.exp(la.real)
        K_a = _lambert_count(p, ra, [ra], tol)
        S = math.isqrt(K_a // POLYLOG_COST[p]) - K_a // K
        if p == -2:
            S = min(S, math.ceil((math.log(LI2_SWITCH) - lu.real) / la.real))
    if S <= 0:
        return _lambert(p, lu, las, K, dlu, dlas)
    values, err = [], 0.0
    for m in range(S + 1):
        mu = lu + m * la
        dmu = dlu + m * dla + _G3 * (abs(lu) + m * abs(la))
        if m < S:
            value, bound = _polylog_exp(-p, mu, dmu)
        else:
            value, bound = _lambert(p, mu, las, _lambert_count(
                p, math.exp(min(mu.real, 0.0)), [ra], tol), dmu, dlas)
        values.append(value)
        err += bound
    total = complex(math.fsum(v.real for v in values),
                    math.fsum(v.imag for v in values))
    return total, (err + _G2 * abs(total)) * (1 + _gamma(S + 8))


def _residue_sums(p: int, z: complex, periods: dict, tol: float,
                  what: str) -> list[tuple[complex, complex, float]]:
    """(a, F_a, error bound) for each period a of `periods` (name -> value,
    w1 and w1t among them).  2 pi i times the residues of
    e^(Z s) s^p / prod_b (e^(b s) - 1), b over `periods` and Z = z + w1bar,
    at the poles s = 2 pi i k / a, k >= 1, sum to (2 pi i/a)^(p+1) F_a with

        F_a = sum_{k>=1} k^p x^k / prod_{b != a} (q_b^k - 1),
        x = e^(2 pi i Z/a),  q_b = e^(2 pi i b/a).

    Each b/a is taken as m + e by `_reduce`, so that a family near
    coincidence (b/a near an integer, the D_n geometry as t tau -> 0) keeps
    the digits of its small Im(b/a): q_b = e^(2 pi i e), and
    x = e^(2 pi i z/a + pi i (m1 + e1 + m2 + e2)) from the parts of w1/a and
    w1t/a, without rounding Z.  A nome with |q| > 1 is folded into x as
    1/(q^k - 1) = q^-k/(1 - q^-k); one with |q| < 1 gives
    1/(q^k - 1) = -1/(1 - q^k) and flips the family's sign.  Every family
    then runs `_family` with its tail at most tol, given the error of each
    log: gamma_14 on 2 pi i z/a, gamma_2 on 2 pi i e past the error of e,
    and u on each sum; a's own ratio is exactly 1 + 0, not reduced.
    `_family` splits a one-nome family (a g moment) at p = -1 or -2 into
    polylogs and a shifted kernel.  The term budget below reads the
    unshifted count K.

    Refused (RegionError) where a nome lies on the unit circle (coincident
    poles), where a family's rate rho = |x| / prod_{|q|>1} |q| is not below
    1, or where a family would need more than MAX_LAMBERT_TERMS terms.
    """
    families, preds = [], []
    for name, a in periods.items():
        parts = {other: _reduce(b, a) for other, b in periods.items() if other != name}
        m1, e1, de1 = parts.get("w1", (1, 0j, 0.0))
        m2, e2, de2 = parts.get("w1t", (1, 0j, 0.0))
        lz = TWO_PI_I * z / a
        n = (m1 + m2) % 2
        lu = lz + 1j * math.pi * (e1 + e2 + n)
        ae = abs(e1) + abs(e2) + n
        size = abs(lz) + math.pi * ae
        dlu = _G14 * abs(lz) + math.pi * (de1 + de2 + _G4 * ae)
        las, dlas, sign = [], [], 1
        for other, (_, e, de) in parts.items():
            la = TWO_PI_I * e
            dla = 2 * math.pi * (de + _G2 * abs(e))
            preds.append(Predicate(f"{other}/{name} not real", abs(la.real), margin=1e-9))
            if la.real > 0:
                la = -la
                lu += la
                dlu += dla
                size += abs(la)
            else:
                sign = -sign
            las.append(la)
            dlas.append(dla)
        dlu += _G3 * size
        rho = math.exp(min(lu.real, 0.0))
        preds.append(Predicate(f"rho_{name} < 1", -lu.real, margin=1e-12))
        families.append((a, sign, lu, las, rho, dlu, dlas))
    require(preds, what)
    counts = [_lambert_count(p, rho, [math.exp(la.real) for la in las], tol)
              for _, _, _, las, rho, _, _ in families]
    require([Predicate(f"terms < {MAX_LAMBERT_TERMS}", MAX_LAMBERT_TERMS - max(counts))],
            f"{what} (impractically slow: {max(counts)} terms)")
    out = []
    for (a, sign, lu, las, _, dlu, dlas), K in zip(families, counts):
        value, bound = _family(p, lu, las, K, dlu, dlas, tol)
        out.append((a, sign * value, bound))
    return out


def _require_bound(err: float, tol: float, what: str) -> None:
    require([Predicate("error bound <= SAFETY*tol", SAFETY * tol - err)],
            f"{what} (error bound {err:.3e})")


def log_G_series(z: complex, w1: complex, w1t: complex, w2: complex,
                 tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    """log G by its residue series: closing the contour on the poles
    2 pi i k / w_j gives

        log G = -sum_j sum_{k>=1} x_j^k / (k prod_{i != j} (q_ji^k - 1)),
        x_j = e^(2 pi i (z + w1bar)/w_j),  q_ji = e^(2 pi i w_i/w_j),

    the log of Narukawa's double-product factorisation of the triple sine.
    Returns (value, error bound).  Each family's tail is at most SAFETY tol/8,
    which leaves more than half the budget to rounding.  Refused where
    `_residue_sums` refuses, where the contour representation has no
    rotation (the series then continues G past its definition), and where
    the error bound exceeds SAFETY * tol."""
    zeff = z + (w1 + w1t) / 2
    hull_rotation([w1, w1t, w2, zeff, w1 + w1t + w2 - zeff], _G_DIRECTIONS)
    total, err, size = 0j, 0.0, 0.0
    for _, value, bound in _residue_sums(-1, z, {"w1": w1, "w1t": w1t, "w2": w2},
                                         SAFETY * tol / 8, "log G residue series"):
        total -= value
        err += bound
        size += abs(value)
    err += _G3 * size
    _require_bound(err, tol, "log G residue series")
    return total, err


def log_G_value(z: complex, w1: complex, w1t: complex, w2: complex,
                tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    """log G and its error bound: the residue series where it converges
    within tol, else the contour."""
    try:
        return log_G_series(z, w1, w1t, w2, tol)
    except RegionError:
        return log_G_contour(z, w1, w1t, w2, tol)


# ---------------------------------------------------------------------------
# moment integrals f^c_(k-2), g^c_(k-2)


def f_moment_quad(order: int, z: complex, w1bar: complex,
                  tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    """f^c_order(z, w1bar) = int_{cC} e^(zs) s^order / (e^(w1bar s) - 1) ds."""
    require([im_ratio_predicate("z/w1bar", z, w1bar)], "f-moment")
    return _contour(1, z, (w1bar,), order, tol)


def g_moment_quad(order: int, z: complex, w1: complex, w1t: complex,
                  tol: float = DEFAULT_TOL) -> tuple[complex, float]:
    """g^c_order(z, w1, w1t) =
    int_{cC} -e^((z+w1bar)s) s^order / ((e^(w1 s)-1)(e^(w1t s)-1)) ds."""
    require([im_ratio_predicate("z/w1", z, w1), im_ratio_predicate("z/w1t", z, w1t)],
            "g-moment")
    return _contour(-1, z + (w1 + w1t) / 2, (w1, w1t), order, tol)


def _eulerian(n: int) -> list[int]:
    """Eulerian numbers A(n, 0..n-1) (A(0, 0) = 1) by the recurrence
    A(n, k) = (k + 1) A(n-1, k) + (n - k) A(n-1, k-1)."""
    row = [1]
    for m in range(1, n + 1):
        prev = [0, *row, 0]
        row = [(k + 1) * prev[k + 1] + (m - k) * prev[k] for k in range(m)]
    return row


def polylog(s: int, x: complex) -> complex:
    """Li_s(x) for integer s <= 2 and |x| < 1: Li_2 from `_polylog_exp` at
    mu = log x, Li_1 = -log(1 - x), and for s = -n <= 0 the Eulerian form
    Li_(-n)(x) = x A_n(x) / (1 - x)^(n+1), A_n(x) = sum_k A(n, k) x^k."""
    if s == 2:
        return _polylog_exp(2, cmath.log(x), 0.0)[0] if x else 0j
    if s == 1:
        return -cmath.log(1 - x)
    y = 1 - x
    if abs(y) < 1e-14:
        raise PoleZeroError("polylog pole at x = 1")
    acc = 0j
    for a in reversed(_eulerian(-s)):
        acc = acc * x + a
    return x * acc / y ** (1 - s)


def f_moment_series(order: int, z: complex, w1bar: complex) -> complex:
    """Residue-sum closed form: f^c_order = (2 pi i / w1bar)^(order+1) Li_(-order)(x1),
    x1 = exp(2 pi i z / w1bar); converges for Im(z/w1bar) > 0.  Refused
    (RegionError) for an order below -2, where `polylog` has no form of
    Li_(-order), so that the moment takes quadrature there."""
    x1 = cmath.exp(TWO_PI_I * z / w1bar)
    require([Predicate("order >= -2", order + 2, margin=-1),
             Predicate("|x1| < 1", 1 - abs(x1), margin=1e-12)],
            "f-moment residue series")
    return (TWO_PI_I / w1bar) ** (order + 1) * polylog(-order, x1)


def g_moment_series(order: int, z: complex, w1: complex, w1t: complex) -> complex:
    """Residue-sum closed form of the g moment: the pole families
    2 pi i k / w1 and 2 pi i k / w1t of `_residue_sums`.

    Refused (RegionError) where `_residue_sums` refuses, and where the error
    bound summed over both families exceeds SAFETY times the quadrature
    tolerance: at z = dw with |q| -> 1 the families cancel from terms of size
    sigma^-(order+1), and the bound then sends the moment to quadrature."""
    total, err = 0j, 0.0
    for a, value, bound in _residue_sums(order, z, {"w1": w1, "w1t": w1t},
                                         MOMENT_TAIL, "g-moment residue series"):
        pref = (TWO_PI_I / a) ** (order + 1)
        term = pref * value
        total -= term
        # pref: 2 pi i/a within gamma_12, then at most 2|order+1| products
        # and a division by CPython's integer power; times value gamma_3,
        # and u for the term's share of the sum over the two families
        err += abs(pref) * bound + _gamma(18 * abs(order + 1) + 16) * abs(term)
    _require_bound(err, DEFAULT_TOL, "g-moment residue series")
    return total


def _moment(series, quad, order: int, *args: complex) -> complex:
    """One moment: the residue series, else quadrature where the series is
    unavailable."""
    try:
        return series(order, *args)
    except (RegionError, PoleZeroError):
        return quad(order, *args)[0]


def f_moment(order: int, z: complex, w1bar: complex) -> complex:
    """Moment integral by the residue series (exact resummation of the
    contour) where it converges, else by quadrature."""
    return _cached(_moment, f_moment_series, f_moment_quad, order, z, w1bar)


def g_moment(order: int, z: complex, w1: complex, w1t: complex) -> complex:
    return _cached(_moment, g_moment_series, g_moment_quad, order, z, w1, w1t)


# ---------------------------------------------------------------------------
# starred functions


def q_F(z: complex, w1bar: complex, w2: complex) -> complex:
    """Q_F = -f_(-2)/w2 + f_(-1)/2 + (pi i/12)(w2/w1bar)."""
    f2 = f_moment(-2, z, w1bar)
    f1 = f_moment(-1, z, w1bar)
    return -f2 / w2 + f1 / 2 + 1j * math.pi / 12 * w2 / w1bar


def F_star_predicates(z: complex, w1bar: complex) -> list[Predicate]:
    return [im_ratio_predicate("z/w1bar", z, w1bar)]


def log_F_star(z: complex, w1bar: complex, w2: complex) -> complex:
    """log F + Q_F, with F to F_value's tolerance 1e-12: the continuation,
    which checks no predicate."""
    return cmath.log(F_value(z, w1bar, w2)) + q_F(z, w1bar, w2)


def F_star(z: complex, w1bar: complex, w2: complex) -> complex:
    require(F_star_predicates(z, w1bar), "F*")
    return cmath.exp(log_F_star(z, w1bar, w2))


def q_G(z: complex, w1: complex, w1t: complex, w2: complex) -> complex:
    """Q_G = -(g_(-2)(z) - g_(-2)(dw))/w2 + (g_(-1)(z) - g_(-1)(dw))/2
           + (B_{1,2}(z+obar) - B_{1,2}(w1)) zeta(2) w2 / (2 pi i),
    with dw = (w1 - w1t)/2 and the B_{1,2} taken at parameters (w1, w1t)."""
    dw = (w1 - w1t) / 2
    obar = (w1 + w1t) / 2
    g2 = g_moment(-2, z, w1, w1t) - g_moment(-2, dw, w1, w1t)
    g1 = g_moment(-1, z, w1, w1t) - g_moment(-1, dw, w1, w1t)
    b12 = (multiple_bernoulli(1, 2, z + obar, [w1, w1t])
           - multiple_bernoulli(1, 2, w1, [w1, w1t]))
    return -g2 / w2 + g1 / 2 + b12 * zeta_int(2) * w2 / TWO_PI_I


def G_star_predicates(z: complex, w1: complex, w1t: complex) -> list[Predicate]:
    dw = (w1 - w1t) / 2
    return [
        im_ratio_predicate("z/w1", z, w1),
        im_ratio_predicate("z/w1t", z, w1t),
        im_ratio_predicate("dw/w1", dw, w1, kind="tau"),
        im_ratio_predicate("dw/w1t", dw, w1t, kind="tau"),
    ]


def log_G_star(z: complex, w1: complex, w1t: complex, w2: complex) -> complex:
    """log G(z) - log G(dw) + Q_G, with each log G to tolerance 3e-11: the
    continuation, which checks no predicate."""
    dw = (w1 - w1t) / 2
    lg_z, _ = log_G_cached(z, w1, w1t, w2)
    lg_dw, _ = log_G_cached(dw, w1, w1t, w2)
    return lg_z - lg_dw + q_G(z, w1, w1t, w2)


def G_star(z: complex, w1: complex, w1t: complex, w2: complex) -> complex:
    require(G_star_predicates(z, w1, w1t), "G*")
    return cmath.exp(log_G_star(z, w1, w1t, w2))


# ---------------------------------------------------------------------------
# reflection right-hand sides


def reflection_predicates(w1: complex, w1t: complex, w2: complex) -> list[Predicate]:
    """The one precondition list of the four reflection products: the nomes
    q2 = e^(2 pi i w1/w2) and q2t = e^(2 pi i w1t/w2) lie inside the unit
    circle, each stated as -ln|q| = 2 pi Im(w/w2) > 1e-12."""
    return [Predicate(f"|{name}| < 1", 2 * math.pi * im_ratio(w, w2), margin=1e-12)
            for name, w in (("q2", w1), ("q2t", w1t))]


def reflection_rhs_F(z: complex, w1: complex, w1t: complex, w2: complex) -> complex:
    """prod_{k>=0}(1 - x2 p^k) prod_{k>=1}(1 - x2^(-1) p^k)^(-1),
    p = (q2 q2t)^(1/2), each product to tolerance 1e-15; requires
    reflection_predicates."""
    require(reflection_predicates(w1, w1t, w2), "reflection RHS (F)")
    obar = (w1 + w1t) / 2
    x2 = cmath.exp(TWO_PI_I * z / w2)
    p = cmath.exp(TWO_PI_I * obar / w2)
    return (_qprod(x2, p, 1e-15, "reflection RHS F (x2 family)")
            / _qprod(p / x2, p, 1e-15, "reflection RHS F (1/x2 family)"))


def reflection_rhs_G(z: complex, w1: complex, w1t: complex, w2: complex) -> complex:
    """prod_{k1,k2>=0} (1 - x2 q2^(k1+1/2) q2t^(k2+1/2))
                       (1 - x2^(-1) q2^(k1+1/2) q2t^(k2+1/2)),
    each double product to tolerance 1e-15; requires reflection_predicates."""
    require(reflection_predicates(w1, w1t, w2), "reflection RHS (G)")
    x2 = cmath.exp(TWO_PI_I * z / w2)
    q2h = cmath.exp(1j * math.pi * w1 / w2)
    q2th = cmath.exp(1j * math.pi * w1t / w2)
    a, b = q2h * q2h, q2th * q2th
    return (_qprod2(x2 * q2h * q2th, a, b, 1e-15, "reflection RHS G (x2 family)")
            * _qprod2(q2h * q2th / x2, a, b, 1e-15, "reflection RHS G (1/x2 family)"))


# ---------------------------------------------------------------------------
# residue lemma


def residue_lemma_check(w: complex, d: int) -> Residual:
    """Quadrature (to tolerance 1e-10) of -int_C e^(ws) s^(1-d) / (e^(ws)-1)^2 ds
    against (d-1) zeta(d) / (2 pi i) * (w / 2 pi i)^(d-2);  d = 1 uses the
    factor 1."""
    require([Predicate("Re(w) > 0", w.real)], "residue lemma")
    lhs, err = _contour(-1, w, (w, w), 1 - d, 1e-10)
    factor = 1.0 if d == 1 else (d - 1) * zeta_int(d)
    rhs = factor / TWO_PI_I * (w / TWO_PI_I) ** (d - 2)
    res = Residual.compare(f"residue_lemma(d={d})", lhs, rhs, 1e-8,
                           meta={"quad_err": err, "w": w})
    return res


# ---------------------------------------------------------------------------
# asymptotic expansions


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares line of log|y| against log|x| in closed form: its slope
    and the largest absolute residual.  A zero y gives log 0 = -inf and so a
    non-finite slope."""
    lx = [math.log(abs(x)) for x in xs]
    ly = [math.log(abs(y)) if y else -math.inf for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((u - mx) ** 2 for u in lx)
    if sxx == 0:
        raise ValueError("a log-log slope needs at least two distinct |x|")
    slope = sum((u - mx) * (v - my) for u, v in zip(lx, ly)) / sxx
    return slope, max(abs(v - my - slope * (u - mx)) for u, v in zip(lx, ly))


def small_w2_remainders(mode: str, z: complex, params: tuple, K: int,
                        w2s: list[complex]) -> tuple[list[complex], list[complex]]:
    """(log X(w2), log X(w2) - S_K(w2)) for each w2, where X is F (params
    (w1bar,)) or G (params (w1, w1t)) and S_K(w2) = sum_{k=0..K} B_k
    w2^(k-1) m_(k-2) / k! its small-w2 partial sum, m the f or g moments.
    The terms with B_k = 0 (odd k >= 3) are exactly zero, and their moments
    are not computed.  log X is memoised at the default tolerance DEFAULT_TOL."""
    if mode == "F":
        moment, log_X = f_moment, lambda *a: _cached(log_F_contour, *a)
    else:
        moment, log_X = g_moment, log_G_cached
    nums = bernoulli_numbers(K)
    moms = {k: moment(k - 2, z, *params) for k in range(K + 1) if nums[k]}

    def S(w2: complex) -> complex:
        return sum(complex(nums[k]) * w2 ** (k - 1) * m / math.factorial(k)
                   for k, m in moms.items())

    logs = [log_X(z, *params, w2)[0] for w2 in w2s]
    return logs, [lv - S(w2) for w2, lv in zip(w2s, logs)]


def asymptotic_order_small_w2(mode: str, z: complex, params: tuple, K: int,
                              w2_dir: complex) -> Residual:
    """Row "<mode> remainder order K=<K>": the empirical order of
    |log X - S_K| as w2 -> 0 along w2_dir, at |w2| = 0.4 * 2^-m, m = 0..6.

    The remainder after the K-th term scales like w2^K when B_(K+1) != 0 and
    like w2^(K+1) otherwise (odd Bernoulli numbers vanish), so the fitted
    log-log slope must lie in order - 0.2 order/(order + 0.2) < slope < order + 0.2,
    which is what the relative tolerance 0.2/(order + 0.2) passes.
    """
    w2s = [w2_dir * 0.4 * 0.5**m for m in range(7)]
    _, rem = small_w2_remainders(mode, z, params, K, w2s)
    slope, dev = fit_loglog_slope(w2s, rem)
    order = K if bernoulli_numbers(K + 1)[K + 1] else K + 1
    return Residual.compare(f"{mode} remainder order K={K}", slope, order,
                            0.2 / (order + 0.2), meta={"K": K, "fit_deviation": dev})


def _complex_lstsq(basis_rows: list[list[complex]],
                   values: list[complex]) -> list[complex]:
    """Least-squares solution c of A c = y by Householder QR.

    The columns of A run from w2^2 down to 1/w2^2, so each is first scaled
    to unit largest modulus; normal equations would square the condition
    number that remains."""
    m, n = len(basis_rows), len(basis_rows[0])
    scale = [max(abs(row[j]) for row in basis_rows) for j in range(n)]
    # the augmented matrix [A / scale | y], reduced in place to [R | Q^H y]
    a = [[row[j] / scale[j] for j in range(n)] + [yi]
         for row, yi in zip(basis_rows, values)]
    for k in range(n):
        x0 = a[k][k]
        alpha = -math.sqrt(sum(abs(a[i][k]) ** 2 for i in range(k, m)))
        if x0:
            alpha *= x0 / abs(x0)
        # H = I - 2 v v^H / (v^H v) maps column k below row k onto alpha e_k
        v = [x0 - alpha] + [a[i][k] for i in range(k + 1, m)]
        vv = sum(abs(vi) ** 2 for vi in v)
        for j in range(k, n + 1):
            d = 2 * sum(vi.conjugate() * a[i][j] for i, vi in enumerate(v, k)) / vv
            for i, vi in enumerate(v, k):
                a[i][j] -= d * vi
    c = [0j] * n
    for k in reversed(range(n)):
        c[k] = (a[k][n] - sum(a[k][j] * c[j] for j in range(k + 1, n))) / a[k][k]
    return [ck / sj for ck, sj in zip(c, scale)]


#: growing term of the large-w2 expansion -> its change from w2 to 2 w2
_GROWTH = {
    "quadratic": lambda w2: w2 * w2 * 3,
    "linear": lambda w2: w2,
    "log": lambda w2: math.log(2.0),
}


def _infinity_fit_rows(terms: tuple[str, ...], w2s: list[complex]) -> list[list[complex]]:
    """Basis rows of asymptotic_infinity_fit: the change of each growing term
    (keys of _GROWTH, in column order), then of 1/w2 and 1/w2^2, from w2 to
    2 w2, for every w2 but the last.
    Fitting consecutive differences removes the unknown O(1) constant, which
    otherwise limits how well the log coefficient can be resolved."""
    # 1/w2 and 1/w2^2 change by -1/(2 w2) and -3/(4 w2^2)
    return [[_GROWTH[term](w2) for term in terms] + [-0.5 / w2, -0.75 / w2**2]
            for w2 in w2s[:-1]]


def asymptotic_infinity_fit(mode: str, z: complex, params: tuple,
                            w2_dir: complex) -> list[Residual]:
    """Fit the large-w2 growth of log F / log G at |w2| = 16 * 2^m, m = 0..7,
    each value to tolerance 1e-8: one row "<mode> infinity coefficient
    (<name>)" per growing term, the fitted value against its closed form at
    1e-4.

    F:  log F ~ -(pi i/12)(w2/w1bar) + B_1(z/w1bar) log w2 + O(1)
    G:  log G ~ B_{0,2} zeta(3)/(4 pi^2) w2^2 - B_{1,2} zeta(2)/(2 pi i) w2
                - B_{2,2}/2 log w2 + O(1),
    the multiple Bernoulli polynomials taken at (z + w1bar | w1, w1t).
    """
    if mode == "F":
        (w1bar,) = params
        log_X = log_F_contour
        closed = {"linear": -1j * math.pi / 12 / w1bar,
                  "log": complex(bernoulli_poly(1, z / w1bar))}
    else:
        w1, w1t = params
        log_X = log_G_value

        def b(n: int) -> complex:
            return complex(multiple_bernoulli(n, 2, z + (w1 + w1t) / 2, [w1, w1t]))
        closed = {"quadratic": b(0) * zeta_int(3) / (4 * math.pi**2),
                  "linear": -b(1) * zeta_int(2) / TWO_PI_I,
                  "log": -b(2) / 2}
    w2s = [w2_dir * 16.0 * 2.0**m for m in range(8)]
    vals = [log_X(z, *params, w2, 1e-8)[0] for w2 in w2s]
    diffs = [vals[j + 1] - vals[j] for j in range(7)]
    coef = _complex_lstsq(_infinity_fit_rows(tuple(closed), w2s), diffs)
    return [Residual.compare(f"{mode} infinity coefficient ({name})", fitted, value, 1e-4)
            for (name, value), fitted in zip(closed.items(), coef)]
