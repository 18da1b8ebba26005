"""Exact quantum torus algebra over Laurent polynomials in q^(1/2).

Elements are finite sums  sum_g  c_g(q^(1/2)) * y_g  over the doubled charge
lattice, with the twisted product

    y_g1 * y_g2 = q^(<g1,g2>/2) * y_(g1+g2).

Products are formed in this y basis only.  The x basis of the motivic
literature, x_g1 * x_g2 = L^(<g1,g2>/2) x_(g1+g2) with q^(1/2) = -L^(1/2),
is related by y_g = sigma(g) x_g for a quadratic refinement sigma.

The wall-crossing operator attached to an active ray is conjugation by a
product of quantum dilogarithms.  Everything in this module is exact at
the cutoffs it is given: order N in the ray direction and qcut in powers of
q^(1/2) (in half-units); a product is formed at the cutoff `_enlarged`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .laurent import LaurentPoly, sum_of_products
from .lattice import (DELTA, ChargeVector, RefinedBPSStructure,
                      conifold_omega, skew_pair)


# ---------------------------------------------------------------------------
# Quadratic refinement


def sigma(g: ChargeVector) -> int:
    """Quadratic refinement (-1)^(a + a ma + b mb) of g = (a, b, ma, mb).

    It satisfies sigma(g1+g2) = (-1)^<g1,g2> sigma(g1) sigma(g2), and its
    values on the basis are the conifold choice sigma(beta) = -1,
    sigma(delta) = +1.  The signs on the magnetic basis are not pinned down
    by the wall-crossing formulas (magnetic generators never appear inside
    the jump factors); they are +1.
    """
    return -1 if (g.a + g.a * g.ma + g.b * g.mb) % 2 else 1


# ---------------------------------------------------------------------------
# Torus elements


class QTorusElement:
    """Finite map charge -> LaurentPoly, understood in the y-generator basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ChargeVector, LaurentPoly] | None = None):
        self.terms = {g: c for g, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def generator(cls, g: ChargeVector) -> "QTorusElement":
        return cls({g: LaurentPoly.one()})

    def __add__(self, other: "QTorusElement") -> "QTorusElement":
        t = dict(self.terms)
        for g, c in other.terms.items():
            t[g] = t.get(g, LaurentPoly.zero()) + c
        return QTorusElement(t)

    def mul(self, other: "QTorusElement", qcut: int) -> "QTorusElement":
        """Twisted product y_g1 * y_g2 = q^(<g1,g2>/2) y_(g1+g2), each
        coefficient truncated at qcut."""
        out: dict[ChargeVector, LaurentPoly] = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                c = (c1 * c2).shift(skew_pair(g1, g2)).truncate(qcut)
                g = g1 + g2
                out[g] = out.get(g, LaurentPoly.zero()) + c
        return QTorusElement(out)

    def truncate_electric(self, deg: int) -> "QTorusElement":
        return QTorusElement({g: c for g, c in self.terms.items()
                              if abs(g.a) <= deg and abs(g.b) <= deg})

    def truncate_q(self, qcut: int) -> "QTorusElement":
        return QTorusElement({g: c.truncate(qcut) for g, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTorusElement):
            return NotImplemented
        return self.terms == other.terms

    def to_json(self) -> list:
        rows = []
        for g in sorted(self.terms, key=lambda g: g.coords()):
            rows.append({"charge": list(g.coords()), "coeff": self.terms[g].to_json()})
        return rows

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*y{g.coords()}"
                          for g, c in sorted(self.terms.items(), key=lambda t: t[0].coords()))


# ---------------------------------------------------------------------------
# Formal series along a single ray direction


class RaySeries(NamedTuple):
    """Truncated series  sum_{j=0..N}  c_j u^j  with u = y_gamma0.

    Coefficients are LaurentPolys, truncated at q-half-exponent qcut.
    """

    gamma0: ChargeVector
    coeffs: tuple
    qcut: int

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, gamma0: ChargeVector, order: int, qcut: int) -> "RaySeries":
        return cls(gamma0, (LaurentPoly.one(),) + (LaurentPoly.zero(),) * order, qcut)

    @classmethod
    def binomial(cls, gamma0: ChargeVector, coeff: LaurentPoly, power: int,
                 e: int, order: int, qcut: int) -> "RaySeries":
        """(1 + c u^power)^e = sum_j C(e, j) c^j u^(j power) for any integer
        e, with c = coeff and each c^j truncated at qcut; the one series when
        power > order.  C(e, j) = e (e-1) ... (e-j+1)/j! is an integer also
        for e < 0, so no factor is inverted.  For a monomial c, as in every
        factor of this module, it equals |e| truncated products of the
        factor or of its inverse."""
        c = coeff.truncate(qcut)
        coeffs = [LaurentPoly.one()] + [LaurentPoly.zero()] * order
        binom = 1
        for j in range(1, order // power + 1):
            binom = binom * (e - j + 1) // j
            if binom == 0:
                break
            pw = c if j == 1 else (pw * c).truncate(qcut)
            coeffs[j * power] = pw if binom == 1 else pw * binom
        return cls(gamma0, tuple(coeffs), qcut)

    def _like(self, coeffs) -> "RaySeries":
        return RaySeries(self.gamma0, tuple(coeffs), self.qcut)

    def mul(self, other: "RaySeries") -> "RaySeries":
        """Product of two series along the same charge to the same order.
        Each coefficient  c_k = sum_(i+j=k) a_i b_j  is one truncated sum of
        products (`laurent.sum_of_products`), exact at qcut; a torus product
        (`QTorusElement.mul`) still adds its products term by term."""
        if self.gamma0 != other.gamma0 or self.order != other.order:
            raise ValueError(
                f"cannot multiply a ray series along {self.gamma0} to order "
                f"{self.order} by one along {other.gamma0} to order {other.order}")
        a, b = self.coeffs, other.coeffs
        return self._like(
            sum_of_products(((a[i], b[k - i]) for i in range(k + 1)
                             if a[i] and b[k - i]), self.qcut)
            for k in range(self.order + 1))

    def inverse(self) -> "RaySeries":
        """Series inverse; the constant term must be 1, as it is for every
        DT product, so each coefficient stays integral.  Each coefficient
        out_j = -sum_(i=1..j) c_i out_(j-i) is one truncated sum of products
        (`laurent.sum_of_products`), exact at qcut."""
        if self.coeffs[0] != LaurentPoly.one():
            raise ValueError(f"constant term {self.coeffs[0]} is not 1; "
                             "cannot invert ray series")
        c, out = self.coeffs, [LaurentPoly.one()]
        for j in range(1, self.order + 1):
            out.append(-sum_of_products(((c[i], out[j - i]) for i in range(1, j + 1)),
                                        self.qcut))
        return self._like(out)

    def scale_arg(self, half_exp: int) -> "RaySeries":
        """Substitute u -> q^(half_exp/2) u."""
        return self._like(c.shift(j * half_exp).truncate(self.qcut)
                          for j, c in enumerate(self.coeffs))

    def as_element(self, carrier: ChargeVector | None = None) -> QTorusElement:
        """Sum_j c_j y_(j gamma0 + carrier), coefficients taken verbatim."""
        base = carrier if carrier is not None else ChargeVector()
        return QTorusElement({j * self.gamma0 + base: c
                              for j, c in enumerate(self.coeffs)})

    def to_json(self) -> list:
        return [{"power": j, "coeff": c.to_json()} for j, c in enumerate(self.coeffs)]


# ---------------------------------------------------------------------------
# Quantum dilogarithm series


def eq_coefficients(jmax: int, qcut: int, inverse: bool = False) -> list[LaurentPoly]:
    """Coefficients of x^j, j <= jmax, in E_q(x) = prod_{k>=0} (1 - x q^k),
    or with `inverse` in 1/E_q(x) = sum_j x^j / (q;q)_j (Euler; Andrews,
    The Theory of Partitions, Cor. 2.2), mod q-tail.

    From E_q(x) = (1-x) E_q(qx):  c_j (1 - q^j) = -q^(j-1) c_{j-1}, and for
    the inverse  d_j (1 - q^j) = d_{j-1}.  Each coefficient is found by
    dividing by (1 - q^j) as a running sum over the half-exponents
    n <= qcut:  d[n] = d[n - 2j] + a[n],  a = -q^(j-1) c_{j-1}, or d_{j-1}.
    Every coefficient has only non-negative exponents, so no term below the
    cutoff is lost.
    """
    coeffs = [LaurentPoly.one()]
    for j in range(1, jmax + 1):
        shift, sign = (0, 1) if inverse else (2 * (j - 1), -1)
        d = [0] * (qcut + 1)
        for n, a in coeffs[-1].items():
            if n + shift <= qcut:
                d[n + shift] = sign * a
        for n in range(2 * j, qcut + 1):
            d[n] += d[n - 2 * j]
        coeffs.append(LaurentPoly(dict(enumerate(d))))
    return coeffs


def qdilog_series(u_prefactor: LaurentPoly, order: int, qcut: int,
                  gamma0: ChargeVector = DELTA, power: int = 1,
                  inverse: bool = False,
                  table: list[LaurentPoly] | None = None) -> RaySeries:
    """E_q(u_prefactor * y_(power*gamma0)), or its inverse, as a RaySeries
    in u = y_gamma0.

    The x^j coefficient of E_q or 1/E_q (`eq_coefficients(order // power,
    qcut, inverse)`, or the first entries of `table`, a longer table built
    with the same qcut and `inverse`) lands at u-power j*power with an extra
    u_prefactor^j.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if power < 1:
        raise ValueError("power must be a positive integer")
    jmax = order // power
    base = table if table is not None else eq_coefficients(jmax, qcut, inverse)
    out = [LaurentPoly.one()] + [LaurentPoly.zero()] * order
    pref = LaurentPoly.one()
    for j in range(1, jmax + 1):
        pref = (pref * u_prefactor).truncate(qcut)
        out[j * power] = (base[j] * pref).truncate(qcut)
    return RaySeries(gamma0, tuple(out), qcut)


def minus_q_half_power(n: int) -> LaurentPoly:
    """(-q^(1/2))^n as a Laurent monomial."""
    return LaurentPoly.monomial(n, -1 if n % 2 else 1)


# ---------------------------------------------------------------------------
# DT products and BPS automorphisms


def omega_components(omega: LaurentPoly) -> tuple[tuple[int, int], ...]:
    """(n, Omega_n) pairs of an invariant written over L^(1/2)."""
    comps = []
    for n, a in sorted(omega.items()):
        if a.denominator != 1:
            raise ValueError("expected integer refined invariants")
        comps.append((n, int(a)))
    return tuple(comps)


class Ray(NamedTuple):
    """An active ray: its primitive charge gamma0 and `charges`, one pair
    (w, ((n, Omega_n), ...)) per charge w*gamma0 with a nonzero invariant,
    its components by `omega_components`; `conifold_ray_charges` builds it.
    A ray with no charges (ell_inf at kmax = 0) is empty: its DT product is
    the series 1, and it acts trivially."""

    gamma0: ChargeVector
    charges: tuple


def dt_ray(ray: Ray, order: int, qcut: int) -> RaySeries:
    """DT product of one active ray:
    prod_{g = w gamma0 in ray} prod_n E_q((-q^(1/2))^(n+1) y_g)^(-(-1)^n Omega_n(g)).

    A factor with a negative exponent is a power of 1/E_q, taken from its
    own series; the tables of E_q and 1/E_q are built once per call, to
    x^order, and every factor reads its first entries.  A factor to the
    power |e| enters the product |e| times; the product is taken from the
    first factor, and is the series 1 on an empty ray.
    """
    tables: dict[bool, list[LaurentPoly]] = {}
    factors = []
    for w, comps in ray.charges:
        for n, omega_n in comps:
            e = -omega_n if n % 2 == 0 else omega_n
            inverse = e < 0
            if inverse not in tables:
                tables[inverse] = eq_coefficients(order, qcut, inverse)
            factors += [qdilog_series(minus_q_half_power(n + 1), order, qcut,
                                      ray.gamma0, w, inverse, tables[inverse])] * abs(e)
    if not factors:
        return RaySeries.one(ray.gamma0, order, qcut)
    return functools.reduce(RaySeries.mul, factors)


def conjugation_element(f: RaySeries, gamma_m: ChargeVector) -> QTorusElement:
    """Ad_f(y_gm) expanded in the canonical basis  sum_j b_j y_(j gamma0 + gm).

    Ad_f(y_gm) = y_gm * g(y_gamma0) with the multiplier
    g(u) = f(q^c u) * f(u)^(-1),  c = <gamma0, gamma_m>; moving y_gm across
    it costs q^(-j c / 2) on the u^j term.
    """
    c = skew_pair(f.gamma0, gamma_m)
    g = f.scale_arg(2 * c).mul(f.inverse())
    return g.scale_arg(-c).as_element(carrier=gamma_m)


def _enlarged(qcut: int, factors) -> int:
    """Working cutoff of a product truncated once at qcut: a factor (jmax, h)
    whose u^j terms (j <= jmax) carry no q-power below q^(j h/2) pulls a term
    dropped above the cutoff down by at most jmax * max(0, -h) half-units."""
    return qcut + sum(jmax * max(0, -h) for jmax, h in factors)


def ray_factors(ray: Ray, gamma_m: ChargeVector) -> list[tuple[int, int, int, int]]:
    """The factors (h, s, w, e), each (1 + s q^(h/2) u^w)^e in
    u = y_gamma0, of a ray's automorphism on y_gm:

    prod_{g = w gamma0} prod_n prod_{k=0}^{M-1}
        (1 + (-q^(1/2))^n (q^(1/2))^(2k+1-M) y_g)^((-1)^n Omega_n(g) sgn<g,gm>)
    with <g, gm> = w <gamma0, gm> and M = |<g, gm>|; none for an empty ray
    or an electric gm.
    """
    c = skew_pair(ray.gamma0, gamma_m)
    sgn = 1 if c > 0 else -1
    factors = []
    for w, comps in ray.charges:
        m_abs = abs(w * c)
        for n, omega_n in comps:
            e = (omega_n if n % 2 == 0 else -omega_n) * sgn
            factors += [(n + 2 * k + 1 - m_abs, -1 if n % 2 else 1, w, e)
                        for k in range(m_abs)]
    return factors


def closed_form_element(ray: Ray, gamma_m: ChargeVector, order: int,
                        qcut: int) -> QTorusElement:
    """The `ray_factors` product on y_gm in the canonical basis, taken from the
    first factor at the `_enlarged` cutoff of its factors and truncated once
    at qcut; y_gm for none."""
    factors = ray_factors(ray, gamma_m)
    if not factors:
        return QTorusElement.generator(gamma_m)
    work = _enlarged(qcut, [(order // w, h) for h, _, w, _ in factors])
    return functools.reduce(RaySeries.mul, [
        RaySeries.binomial(ray.gamma0, LaurentPoly.monomial(h, s), w, e, order, work)
        for h, s, w, e in factors]).as_element(carrier=gamma_m).truncate_q(qcut)


def ray_action(ray: Ray, gamma: ChargeVector, order: int,
               qcut: int) -> QTorusElement:
    """Action of the ray automorphism on y_gamma by genuine conjugation of
    y_gamma with the DT product, at the `_enlarged` cutoff of (order, -|c|),
    c = <gamma0, gamma>, truncated at qcut: the DT product and its inverse
    carry no negative q-power (n + 1 >= 0 in each factor), and conjugation
    costs u^j at most q^(-j |c|/2).  Electric gamma and an empty ray act trivially."""
    if gamma.is_electric() or not ray.charges:
        return QTorusElement.generator(gamma)
    work = _enlarged(qcut, [(order, -abs(skew_pair(ray.gamma0, gamma)))])
    return conjugation_element(dt_ray(ray, order, work), gamma).truncate_q(qcut)


@dataclass(frozen=True)
class AutomorphismResult:
    element: QTorusElement        # conjugation-computed action on y_gamma
    closed_form: QTorusElement    # product-formula action


def bps_automorphism(structure: RefinedBPSStructure, ray_charges: Ray,
                     gamma: ChargeVector, order: int, qcut: int) -> AutomorphismResult:
    """Action of the ray automorphism on y_gamma, computed two ways.

    (a) genuine conjugation of y_gamma by the DT product (`ray_action`),
    (b) the closed-form product.  Both are exact at qcut, so they agree;
    callers compare them.  Electric gamma and an empty ray act trivially:
    (a) returns y_gamma without conjugating, and (b) multiplies no factor.
    `structure` is not read.
    """
    return AutomorphismResult(ray_action(ray_charges, gamma, order, qcut),
                              closed_form_element(ray_charges, gamma, order, qcut))


# ---------------------------------------------------------------------------
# Conifold ray data and the sector automorphism


def conifold_ray_charges(kind: str, n: int | None = None, kmax: int = 8) -> Ray:
    """The `Ray` of a named conifold ray, its invariants from `conifold_omega`.

    kind "ell_n": gamma0 = beta + n delta, w = 1.  kind "-ell_n":
    gamma0 = -(beta + n delta), w = 1.  kind "ell_inf": gamma0 = delta,
    w = 1..kmax (empty for kmax = 0).
    """
    if kind == "ell_n":
        gamma0, mults = ChargeVector(1, n), (1,)
    elif kind == "-ell_n":
        gamma0, mults = ChargeVector(-1, -n), (1,)
    elif kind == "ell_inf":
        gamma0, mults = DELTA, range(1, kmax + 1)
    else:
        raise ValueError(f"unknown ray kind {kind!r}")
    return Ray(gamma0, tuple((w, omega_components(conifold_omega(w * gamma0)))
                             for w in mults))


def sector_closed_form(gamma: ChargeVector, adeg: int, bdeg: int,
                       qcut: int) -> QTorusElement:
    """Multiplier of the just-under-a-half-plane sector automorphism on x_gamma.

    Three product families: rays through beta + n delta (n >= 0), through
    -beta + n delta (n >= 1), and the delta-multiple ray, each expanded to
    electric bidegree (adeg, bdeg), adeg == bdeg (`_require_square`).
    Returned in the y basis.  A factor (1 - q^(h/2) x_g)^e, x_g = sigma(g) y_g,
    runs to u^jmax (`_jmax`); as its u^j term carries q^(j h/2), the product
    is formed at the `_enlarged` cutoff of its factors and truncated once at
    qcut.
    """
    _require_square(adeg, bdeg)
    factors = []   # (h, g, e): the factor (1 - q^(h/2) x_g)^e
    for g in ([ChargeVector(1, n) for n in range(0, bdeg + 1)]
              + [ChargeVector(-1, n) for n in range(1, bdeg + 1)]):
        pairing = skew_pair(g, gamma)
        m_abs, sgn = abs(pairing), (1 if pairing > 0 else -1)
        factors += [(1 - m_abs + 2 * k, g, sgn) for k in range(m_abs)]
    d_pair = skew_pair(DELTA, gamma)
    sgn = -1 if d_pair > 0 else 1
    for m in range(1, bdeg + 1):
        g, m_abs = ChargeVector(0, m), m * abs(d_pair)
        for k in range(m_abs):
            factors += [(2 - m_abs + 2 * k, g, sgn), (-m_abs + 2 * k, g, sgn)]
    work = _enlarged(qcut, [(_jmax(g, adeg), h) for h, g, _ in factors])
    return _electric_product(
        [RaySeries.binomial(g, LaurentPoly.monomial(h, -sigma(g)), 1, e,
                            _jmax(g, adeg), work).as_element() for h, g, e in factors],
        adeg, work).truncate_q(qcut)


def _require_square(adeg: int, bdeg: int) -> None:
    """Refuse adeg != bdeg: the bidegree box is then not closed under the
    product of multipliers whose terms take both signs of a, and the closed
    form and the ray composition disagree (delta_v at (1, 3))."""
    if adeg != bdeg:
        raise ValueError(f"sector multipliers need adeg == bdeg, got adeg={adeg}, bdeg={bdeg}")


def _jmax(g: ChargeVector, deg: int) -> int:
    """Largest j with j g inside electric bidegree (deg, deg)."""
    return deg // max(abs(g.a), abs(g.b))


def _electric_product(multipliers: list[QTorusElement], deg: int,
                      qcut: int) -> QTorusElement:
    """Product of electric multipliers in order, taken from the first, each
    partial product truncated to bidegree (deg, deg) and at qcut; y_0 for
    none."""
    first, *rest = multipliers or [QTorusElement.generator(ChargeVector())]
    return functools.reduce(lambda acc, m: acc.mul(m, qcut).truncate_electric(deg),
                            rest, first.truncate_electric(deg))


def sector_from_rays(structure: RefinedBPSStructure, gamma: ChargeVector,
                     adeg: int, bdeg: int, qcut: int) -> QTorusElement:
    """Sector multiplier assembled from the individual ray automorphisms.

    Rays are composed in clockwise order, ell(0), ell(1), ..., ell_inf,
    -ell(-bdeg), ..., -ell(-1); since every multiplier is electric and the
    ray operators fix electric generators, the composition reduces to the
    product of the per-ray multipliers.  A ray's u^j term carries no q-power
    below q^(-j |c| / 2), c = <gamma0, gamma>; the actions and their product
    are formed at the `_enlarged` cutoff.  adeg == bdeg (`_require_square`);
    `structure` is not read.
    """
    _require_square(adeg, bdeg)
    rays = [conifold_ray_charges("ell_n", n) for n in range(0, bdeg + 1)]
    rays.append(conifold_ray_charges("ell_inf", kmax=bdeg))
    rays.extend(conifold_ray_charges("-ell_n", -m) for m in range(bdeg, 0, -1))
    work = _enlarged(qcut, [(_jmax(ray.gamma0, adeg), -abs(skew_pair(ray.gamma0, gamma)))
                            for ray in rays])
    actions = [ray_action(ray, gamma, adeg, work) for ray in rays]
    return _electric_product(
        [QTorusElement({g - gamma: c for g, c in action.terms.items()})
         for action in actions], adeg, work).truncate_q(qcut)

