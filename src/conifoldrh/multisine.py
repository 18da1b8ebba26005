"""The double/triple sine layer: F and G with their integral representations,
product expansions, moment integrals, exponential prefactors and asymptotics.

F(z | w1bar, w2) is the double sine with the exp(-pi i/2 B_{2,2}) prefactor
absorbed, G(z | w1, w1t, w2) the triple sine (arguments shifted by w1bar) with
the exp(pi i/6 B_{3,3}) prefactor absorbed; both then admit plain contour
integral representations

    log F = int_C e^(zs) / ((e^(w1bar s)-1)(e^(w2 s)-1)) ds/s,
    log G = int_C -e^((z+w1bar) s) / ((e^(w1 s)-1)(e^(w1t s)-1)(e^(w2 s)-1)) ds/s,

over the real line with an upper semicircle at the origin, rotated into the
admissible wedge.  The starred functions F*, G* multiply in Laurent-in-w2
prefactors Q_F, Q_G built from the k = 0, 1 moment integrals so that both
tend to 1 as w2 -> 0 and grow at most polynomially as w2 -> infinity.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .bernoulli import bernoulli_numbers, multiple_bernoulli, zeta_int
from .checks import (Predicate, RegionError, Residual, im_ratio,
                     im_ratio_predicate, require)
from .contour import (ContourSpec, QuadratureError, choose_outer_cutoff,
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
# overflow-safe integrand pieces


def _exp_over_prod(zeff: complex, omegas: tuple, s: complex) -> complex:
    """e^(zeff s) / prod_i (e^(w_i s) - 1), overflow-safe.

    Factors with Re(w s) > 0 are rewritten 1/(e^a - 1) = e^(-a)/(1 - e^(-a))
    and the e^(-a) pulled into the numerator exponent, so nothing overflows
    along either half-line.
    """
    shift = 0j
    den = 1 + 0j
    for w in omegas:
        a = w * s
        if a.real > 0:
            den *= 1 - cmath.exp(-a)
            shift += a
        else:
            den *= cmath.exp(a) - 1
    return cmath.exp(zeff * s - shift) / den


def _contour(f, zeff: complex, omegas: tuple, spec: ContourSpec,
             names: list[str] | None = None) -> tuple[complex, float]:
    """Integral of f = +-e^(zeff s) s^k / prod_i (e^(w_i s) - 1) over the
    detour contour rotated by c.

    f decays along both half-lines and no pole is crossed when every w_i,
    zeff and sum(w) - zeff lie in the right half-plane of c, and the value
    does not depend on c there; hull_rotation picks the c of widest margin.
    The semicircle radius is EPS_POLE_FRACTION of the distance to the nearest
    pole 2 pi i / w of the integrand, the outer cutoff the first radius where
    f is negligible.
    """
    c, _ = hull_rotation([*omegas, zeff, sum(omegas) - zeff], names)
    eps = EPS_POLE_FRACTION * 2 * math.pi / max(abs(w) for w in omegas)
    R = choose_outer_cutoff(f, c, eps, spec.tol)
    return detour_integral(f, eps, R, c, spec.tol, spec.max_panels)


def log_F_contour(z: complex, w1bar: complex, w2: complex,
                  spec: ContourSpec | None = None) -> tuple[complex, float]:
    """log F(z | w1bar, w2) by rotated-contour quadrature.

    Valid when a rotation c exists with Re(c w1bar) > 0, Re(c w2) > 0 and
    0 < Re(c z) < Re(c (w1bar + w2)).
    """

    def f(s: complex) -> complex:
        return _exp_over_prod(z, (w1bar, w2), s) / s

    return _contour(f, z, (w1bar, w2), spec or ContourSpec(),
                    ["Re(c*w1bar)>0", "Re(c*w2)>0", "Re(c*z)>0",
                     "Re(c*(w1bar+w2-z))>0"])


def log_G_contour(z: complex, w1: complex, w1t: complex, w2: complex,
                  spec: ContourSpec | None = None) -> tuple[complex, float]:
    """log G(z | w1, w1t, w2) by rotated-contour quadrature.

    Valid when a rotation c exists making all of (w1, w1t, w2) and the strip
    directions z + w1bar, w1bar + w2 - z lie in the right half-plane.
    """
    zeff = z + (w1 + w1t) / 2

    def f(s: complex) -> complex:
        return -_exp_over_prod(zeff, (w1, w1t, w2), s) / s

    return _contour(f, zeff, (w1, w1t, w2), spec or ContourSpec(),
                    ["Re(c*w1)>0", "Re(c*w1t)>0", "Re(c*w2)>0",
                     "Re(c*(z+w1bar))>0", "Re(c*(w1bar+w2-z))>0"])


# ---------------------------------------------------------------------------
# memo store


@lru_cache(maxsize=CACHE_SIZE)
def _memo(signs: tuple, fn, *args):
    return fn(*args)


def _cached(fn, *args):
    """fn(*args), remembered under the key (fn, *args): every argument,
    including a ContourSpec, selects its own entry, and a call that raises
    stores nothing.  0.0 == -0.0 as a key, but a phase (and so a contour
    rotation) tells them apart, so the sign of each part of every real or
    complex argument joins the key."""
    signs = tuple(math.copysign(1.0, x) for a in args
                  if isinstance(a, (float, complex)) for x in (a.real, a.imag))
    return _memo(signs, fn, *args)


def log_G_cached(z: complex, w1: complex, w1t: complex, w2: complex,
                 tol: float = 3e-11) -> tuple[complex, float]:
    return _cached(log_G_contour, z, w1, w1t, w2, ContourSpec(tol=tol))


def clear_caches() -> None:
    """Empty the memo store."""
    _memo.cache_clear()


# ---------------------------------------------------------------------------
# q-products


def _check_factor(u: complex, where: str, tol: float) -> None:
    if abs(1 - u) < 1e3 * tol:
        raise PoleZeroError(f"near-vanishing factor in {where}: |1-u| = {abs(1 - u):.3e}")


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
        _check_factor(u, where, tol)
        out *= 1 - u
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
    p = (q2 q2t)^(1/2) = exp(2 pi i w1bar / w2).
    """
    require([im_ratio_predicate("w1bar/w2", w1bar, w2)], "product expansion of F")
    (u1, q1inv), (x2, p) = _F_families(z, w1bar, w2)
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
    """F by product expansion when available (either parameter ordering: the
    contour representation is symmetric in (w1bar, w2)), else by contour.

    The product route is taken only where both q-products converge within
    MAX_FACTORS factors; near |p| = 1 or |q1^(-1)| = 1 the contour is used.
    """
    for a, b in ((w1bar, w2), (w2, w1bar)):
        if im_ratio(a, b) > 1e-14 and all(
                _qprod_factors(u, q, tol) < MAX_FACTORS
                for u, q in _F_families(z, a, b)):
            return F_product(z, a, b, tol)
    val, _ = log_F_contour(z, w1bar, w2, ContourSpec(tol=max(1e-13, tol * 1e-2)))
    return cmath.exp(val)


# ---------------------------------------------------------------------------
# moment integrals f^c_(k-2), g^c_(k-2)


def f_moment_quad(order: int, z: complex, w1bar: complex,
                  spec: ContourSpec | None = None) -> tuple[complex, float]:
    """f^c_order(z, w1bar) = int_{cC} e^(zs) s^order / (e^(w1bar s) - 1) ds."""
    require([im_ratio_predicate("z/w1bar", z, w1bar)], "f-moment")

    def f(s: complex) -> complex:
        return _exp_over_prod(z, (w1bar,), s) * s**order

    return _contour(f, z, (w1bar,), spec or ContourSpec())


def g_moment_quad(order: int, z: complex, w1: complex, w1t: complex,
                  spec: ContourSpec | None = None) -> tuple[complex, float]:
    """g^c_order(z, w1, w1t) =
    int_{cC} -e^((z+w1bar)s) s^order / ((e^(w1 s)-1)(e^(w1t s)-1)) ds."""
    require([im_ratio_predicate("z/w1", z, w1), im_ratio_predicate("z/w1t", z, w1t)],
            "g-moment")
    zeff = z + (w1 + w1t) / 2

    def f(s: complex) -> complex:
        return -_exp_over_prod(zeff, (w1, w1t), s) * s**order

    return _contour(f, zeff, (w1, w1t), spec or ContourSpec())


def polylog(s: int, x: complex, tol: float = 1e-16) -> complex:
    """Li_s(x) for integer s <= 2; series for s in {1, 2}, closed forms below."""
    if abs(x) >= 1 and s >= 1:
        raise ValueError(f"polylog series requires |x| < 1, got {abs(x):.6f}")
    if s == 2:
        acc = 0j
        term = x
        m = 1
        while abs(term) / m**2 > tol * max(1.0, abs(acc)) or m < 4:
            acc += term / m**2
            m += 1
            term *= x
            if m > 100000:
                raise QuadratureError("polylog series did not converge")
        return acc
    if s == 1:
        return -cmath.log(1 - x)
    y = 1 - x
    if abs(y) < 1e-14:
        raise PoleZeroError("polylog pole at x = 1")
    if s == 0:
        return x / y
    if s == -1:
        return x / y**2
    if s == -2:
        return x * (1 + x) / y**3
    if s == -3:
        return x * (1 + 4 * x + x * x) / y**4
    if s == -4:
        return x * (1 + x) * (1 + 10 * x + x * x) / y**5
    raise ValueError(f"polylog order {s} not implemented")


def f_moment_series(order: int, z: complex, w1bar: complex) -> complex:
    """Residue-sum closed form: f^c_order = (2 pi i / w1bar)^(order+1) Li_(-order)(x1),
    x1 = exp(2 pi i z / w1bar); converges for Im(z/w1bar) > 0."""
    x1 = cmath.exp(TWO_PI_I * z / w1bar)
    require([Predicate("|x1| < 1", 1 - abs(x1), margin=1e-12)],
            "f-moment residue series")
    return (TWO_PI_I / w1bar) ** (order + 1) * polylog(-order, x1)


#: terms one Lambert series of `_g_family` may take before the residue
#: route is declared impractically slow and the moment goes to quadrature
MAX_LAMBERT_TERMS = 20_000


def _lambert_terms(order: int, aw: float, tol: float) -> float:
    """Terms `_g_family` sums before its stop rule holds: the first n past
    the peak order/(-ln|w|) of n^order |w|^n with n^max(order,0) |w|^n <= tol."""
    if aw <= 0:
        return 0.0
    lw = -math.log(aw)
    p = max(order, 0)
    n = max(p / lw, 1.0)
    # n -> (p ln n - ln tol)/lw rises monotonically to the crossing past the peak
    for _ in range(8):
        n = max(n, (p * math.log(n) - math.log(tol)) / lw)
    return n


def _expm1(x: complex) -> complex:
    """e^x - 1 without the cancellation of cmath.exp(x) - 1 at small |x|."""
    h = math.sin(x.imag / 2)
    return complex(math.expm1(x.real) * math.cos(x.imag) - 2 * h * h,
                   math.exp(x.real) * math.sin(x.imag))


def _g_family(order: int, z: complex, a: complex, b: complex,
              tol: float = 1e-16) -> complex:
    """Sum of residues at the poles 2 pi i m / a, m >= 1, of the g integrand.

    The residues make the double sum sum_{m>=0} Li_(-order)(w q^m); swapped
    term by term it is the Lambert series sum_{n>=1} n^order w^n / (1 - q^n),
    which needs about log(tol)/log|w| terms however close |q| is to 1.
    The families near coincidence as b/a nears an integer k: the small
    Im(b/a) that sets |q| would be rounded against the O(1) real part, and
    1 - q^n would cancel.  So rho = exp(pi i b/a) and q = rho^(+-2) are
    taken from e = (b - k a)/a, and 1 - q^n is accumulated from
    1 - q = -expm1(log q) as (1 - q^(n-1)) + q^(n-1) (1 - q).
    """
    k = round((b / a).real)
    e = (b - k * a) / a
    rho_h = (-1) ** k * cmath.exp(1j * math.pi * e)
    u = cmath.exp(TWO_PI_I * z / a)
    pref = (TWO_PI_I / a) ** order / a
    ar = abs(rho_h)
    if ar < 1:
        warg = -u * rho_h
        log_q = TWO_PI_I * e
        sign = 1
    else:
        warg = -u / rho_h
        log_q = -TWO_PI_I * e
        sign = -1
    aw = abs(warg)
    require([Predicate("w1t/w1 not real", abs(ar - 1), margin=1e-9),
             Predicate("|u rho^(+-1/2)| < 1", 1 - aw, margin=1e-12)],
            "g-moment residue series")
    # bail out to quadrature when |w| is so close to 1 that the series would
    # need an absurd number of terms
    nterms = _lambert_terms(order, aw, tol)
    require([Predicate("w1t/w1 not nearly real", MAX_LAMBERT_TERMS - nterms)],
            f"g-moment residue series (impractically slow: {nterms:.0f} terms)")
    p = max(order, 0)
    peak = p / -math.log(aw) if aw else 0.0
    step = cmath.exp(log_q)
    d = -_expm1(log_q)
    acc = 0j
    n = 1
    wn, qn, dn = warg, step, d      # w^n, q^n, 1 - q^n
    while n <= peak or n**p * abs(wn) > tol:
        acc += n**order * wn / dn
        n += 1
        wn *= warg
        dn += qn * d
        qn *= step
    return sign * pref * acc


def g_moment_series(order: int, z: complex, w1: complex, w1t: complex) -> complex:
    """Residue-sum closed form of the g moment (both pole families)."""
    return TWO_PI_I * (_g_family(order, z, w1, w1t) + _g_family(order, z, w1t, w1))


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


def log_F_star(z: complex, w1bar: complex, w2: complex, tol: float = 1e-12,
               enforce: bool = True) -> complex:
    if enforce:
        require(F_star_predicates(z, w1bar), "F*")
    return cmath.log(F_value(z, w1bar, w2, tol)) + q_F(z, w1bar, w2)


def F_star(z: complex, w1bar: complex, w2: complex, tol: float = 1e-12) -> complex:
    return cmath.exp(log_F_star(z, w1bar, w2, tol))


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


def log_G_star(z: complex, w1: complex, w1t: complex, w2: complex,
               tol: float = 3e-11, enforce: bool = True) -> complex:
    if enforce:
        require(G_star_predicates(z, w1, w1t), "G*")
    dw = (w1 - w1t) / 2
    lg_z, _ = log_G_cached(z, w1, w1t, w2, tol)
    lg_dw, _ = log_G_cached(dw, w1, w1t, w2, tol)
    return lg_z - lg_dw + q_G(z, w1, w1t, w2)


def G_star(z: complex, w1: complex, w1t: complex, w2: complex,
           tol: float = 3e-11) -> complex:
    return cmath.exp(log_G_star(z, w1, w1t, w2, tol))


# ---------------------------------------------------------------------------
# reflection right-hand sides


def reflection_predicates(w1: complex, w1t: complex, w2: complex) -> list[Predicate]:
    return [im_ratio_predicate("w1/w2", w1, w2), im_ratio_predicate("w1t/w2", w1t, w2)]


def reflection_rhs_F(z: complex, w1: complex, w1t: complex, w2: complex,
                     tol: float = 1e-12) -> complex:
    """prod_{k>=0}(1 - x2 p^k) prod_{k>=1}(1 - x2^(-1) p^k)^(-1),
    p = (q2 q2t)^(1/2); requires Im(w1/w2) > 0 and Im(w1t/w2) > 0."""
    require(reflection_predicates(w1, w1t, w2), "reflection RHS (F)")
    obar = (w1 + w1t) / 2
    x2 = cmath.exp(TWO_PI_I * z / w2)
    p = cmath.exp(TWO_PI_I * obar / w2)
    return (_qprod(x2, p, tol, "reflection RHS F (x2 family)")
            / _qprod(p / x2, p, tol, "reflection RHS F (1/x2 family)"))


def reflection_rhs_G(z: complex, w1: complex, w1t: complex, w2: complex,
                     tol: float = 1e-12) -> complex:
    """prod_{k1,k2>=0} (1 - x2 q2^(k1+1/2) q2t^(k2+1/2))
                       (1 - x2^(-1) q2^(k1+1/2) q2t^(k2+1/2));
    requires Im(w1/w2) > 0 and Im(w1t/w2) > 0."""
    require(reflection_predicates(w1, w1t, w2), "reflection RHS (G)")
    x2 = cmath.exp(TWO_PI_I * z / w2)
    q2h = cmath.exp(1j * math.pi * w1 / w2)
    q2th = cmath.exp(1j * math.pi * w1t / w2)
    a, b = q2h * q2h, q2th * q2th
    return (_qprod2(x2 * q2h * q2th, a, b, tol, "reflection RHS G (x2 family)")
            * _qprod2(q2h * q2th / x2, a, b, tol, "reflection RHS G (1/x2 family)"))


# ---------------------------------------------------------------------------
# residue lemma


def residue_lemma_check(w: complex, d: int, tol: float = 1e-10) -> Residual:
    """Quadrature of -int_C e^(ws) s^(1-d) / (e^(ws)-1)^2 ds against
    (d-1) zeta(d) / (2 pi i) * (w / 2 pi i)^(d-2);  d = 1 uses the factor 1."""
    require([Predicate("Re(w) > 0", w.real)], "residue lemma")

    def f(s: complex) -> complex:
        return -_exp_over_prod(w, (w, w), s) * s ** (1 - d)

    lhs, err = _contour(f, w, (w, w), ContourSpec(tol=tol))
    factor = 1.0 if d == 1 else (d - 1) * zeta_int(d)
    rhs = factor / TWO_PI_I * (w / TWO_PI_I) ** (d - 2)
    res = Residual.compare(f"residue_lemma(d={d})", lhs, rhs, 1e-8,
                           meta={"quad_err": err, "w": [w.real, w.imag]})
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
                        w2s: list[complex], tol: float = 3e-11
                        ) -> tuple[list[complex], list[complex]]:
    """(log X(w2), log X(w2) - S_K(w2)) for each w2, where X is F (params
    (w1bar,)) or G (params (w1, w1t)) and S_K(w2) = sum_{k=0..K} B_k
    w2^(k-1) m_(k-2) / k! its small-w2 partial sum, m the f or g moments."""
    if mode == "F":
        moment, log_X = f_moment, log_F_contour
    elif mode == "G":
        moment, log_X = g_moment, log_G_contour
    else:
        raise ValueError("mode must be 'F' or 'G'")
    nums = bernoulli_numbers(K)
    moms = [moment(k - 2, z, *params) for k in range(K + 1)]

    def S(w2: complex) -> complex:
        return sum(complex(nums[k]) * w2 ** (k - 1) * moms[k] / math.factorial(k)
                   for k in range(K + 1))

    logs = [log_X(z, *params, w2, ContourSpec(tol=tol))[0] for w2 in w2s]
    return logs, [lv - S(w2) for w2, lv in zip(w2s, logs)]


def asymptotic_order_small_w2(mode: str, z: complex, params: tuple, K: int,
                              w2_dir: complex, tol: float = 3e-11) -> dict:
    """Empirical order of |log X - S_K| as w2 -> 0 along w2_dir, at
    |w2| = 0.4 * 2^-m, m = 0..6.

    The remainder after the K-th term scales like w2^K when B_(K+1) != 0 and
    like w2^(K+1) otherwise (odd Bernoulli numbers vanish), so the fitted
    log-log slope must be within 0.2 of an integer >= K.
    """
    w2s = [w2_dir * 0.4 * 0.5**m for m in range(7)]
    _, rem = small_w2_remainders(mode, z, params, K, w2s, tol)
    slope, dev = fit_loglog_slope(w2s, rem)
    nearest = round(slope)
    passed = abs(slope - nearest) <= 0.2 and nearest >= K
    return {"slope": slope, "nearest_integer": nearest, "K": K,
            "passed": passed, "fit_deviation": dev,
            "remainders": [abs(r) for r in rem]}


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


def _infinity_fit_rows(mode: str, w2s: list[complex]) -> list[list[complex]]:
    """Basis rows of asymptotic_infinity_fit: the change of each term of the
    large-w2 expansion from w2 to 2 w2, for every w2 but the last.
    Fitting consecutive differences removes the unknown O(1) constant, which
    otherwise limits how well the log coefficient can be resolved."""
    # w2^2, w2, log w2, 1/w2, 1/w2^2 change by 3 w2^2, w2, log 2, -1/(2 w2)
    # and -3/(4 w2^2)
    lf = math.log(2.0)
    if mode == "F":
        return [[w2, lf, -0.5 / w2, -0.75 / w2**2] for w2 in w2s[:-1]]
    return [[w2 * w2 * 3, w2, lf, -0.5 / w2, -0.75 / w2**2] for w2 in w2s[:-1]]


def asymptotic_infinity_fit(mode: str, z: complex, params: tuple,
                            w2_dir: complex, tol: float = 1e-8) -> dict:
    """Fit the large-w2 growth of log F / log G at |w2| = 16 * 2^m, m = 0..7,
    and compare the leading coefficients with their closed forms.

    F:  log F ~ -(pi i/12)(w2/w1bar) + B_1(z/w1bar) log w2 + O(1)
    G:  log G ~ B_{0,2} zeta(3)/(4 pi^2) w2^2 - B_{1,2} zeta(2)/(2 pi i) w2
                - B_{2,2}/2 log w2 + O(1),
    the multiple Bernoulli polynomials taken at (z + w1bar | w1, w1t).
    """
    from .bernoulli import bernoulli_poly

    w2s = [w2_dir * 16.0 * 2.0**m for m in range(8)]
    if mode == "F":
        (w1bar,) = params
        vals = [log_F_contour(z, w1bar, w2, ContourSpec(tol=tol))[0] for w2 in w2s]
        diffs = [vals[j + 1] - vals[j] for j in range(7)]
        coef = _complex_lstsq(_infinity_fit_rows(mode, w2s), diffs)
        targets = {
            "linear": (-1j * math.pi / 12 / w1bar, coef[0]),
            "log": (complex(bernoulli_poly(1, z / w1bar)), coef[1]),
        }
    elif mode == "G":
        w1, w1t = params
        obar = (w1 + w1t) / 2
        vals = [log_G_contour(z, w1, w1t, w2, ContourSpec(tol=tol))[0] for w2 in w2s]
        diffs = [vals[j + 1] - vals[j] for j in range(7)]
        coef = _complex_lstsq(_infinity_fit_rows(mode, w2s), diffs)
        b02 = complex(multiple_bernoulli(0, 2, z + obar, [w1, w1t]))
        b12 = complex(multiple_bernoulli(1, 2, z + obar, [w1, w1t]))
        b22 = complex(multiple_bernoulli(2, 2, z + obar, [w1, w1t]))
        targets = {
            "quadratic": (b02 * zeta_int(3) / (4 * math.pi**2), coef[0]),
            "linear": (-b12 * zeta_int(2) / TWO_PI_I, coef[1]),
            "log": (-b22 / 2, coef[2]),
        }
    else:
        raise ValueError("mode must be 'F' or 'G'")

    out = {}
    for name, (closed, fitted) in targets.items():
        rel = abs(fitted - closed) / abs(closed)
        out[name] = {"closed": closed, "fitted": complex(fitted), "rel_err": rel}
    return out
