import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conifoldrh.laurent import LaurentPoly
from conifoldrh.lattice import (BETA, BETA_V, DELTA, DELTA_V, ChargeVector,
                                conifold_bps, conifold_omega, skew_pair)
from conifoldrh.qtorus import (AutomorphismResult, QTorusElement, Ray, RaySeries,
                               bps_automorphism, closed_form_element,
                               conifold_ray_charges, conjugation_element, dt_ray,
                               eq_coefficients, minus_q_half_power,
                               omega_components, qdilog_series, ray_action,
                               sector_closed_form, sector_from_rays, sigma)

S = conifold_bps(0.3 + 0.4j, 1.0)

charges = st.builds(ChargeVector, st.integers(-4, 4), st.integers(-4, 4),
                    st.integers(-4, 4), st.integers(-4, 4))


# ---------------------------------------------------------------------------
# quadratic refinement


@given(charges, charges)
def test_sigma_cocycle(g1, g2):
    assert sigma(g1 + g2) == (-1) ** (skew_pair(g1, g2) % 2) * sigma(g1) * sigma(g2)


def test_sigma_conifold_choice():
    assert sigma(BETA) == -1
    assert sigma(DELTA) == 1
    assert sigma(ChargeVector()) == 1


# ---------------------------------------------------------------------------
# torus product

#: a q cutoff above every twist in a product of three `charges`:
#: |<g1, g2>| <= 4 * 4 * 4 and |<g1 + g2, g3>| <= 4 * 8 * 4
NO_CUT = 256


@given(charges, charges, charges)
@settings(max_examples=40)
def test_product_associative(g1, g2, g3):
    a, b, c = (QTorusElement.generator(g) for g in (g1, g2, g3))
    assert a.mul(b, NO_CUT).mul(c, NO_CUT) == a.mul(b.mul(c, NO_CUT), NO_CUT)


def test_product_twist_and_cutoff():
    """y_g1 y_g2 = q^(<g1,g2>/2) y_(g1+g2), with the coefficient truncated
    at the cutoff: <beta_v + delta, delta_v> = -1 moves every term down by
    q^(1/2) before the cutoff is applied."""
    a = QTorusElement({BETA_V + DELTA: LaurentPoly({0: 2, 3: 1})})
    b = QTorusElement.generator(DELTA_V)
    assert skew_pair(BETA_V + DELTA, DELTA_V) == -1
    want = QTorusElement({BETA_V + DELTA + DELTA_V: LaurentPoly({-1: 2, 2: 1})})
    assert a.mul(b, 2) == want
    assert a.mul(b, 1) == want.truncate_q(1)
    assert a.mul(b, -2).terms == {}


@given(charges, charges)
@settings(max_examples=40)
def test_xy_translation_intertwines(g1, g2):
    """The x-basis product x_g1 x_g2 = L^(<g1,g2>/2) x_(g1+g2), with
    L^(1/2) = -q^(1/2), converted to the y basis agrees with the product
    computed directly in y-coefficients."""
    def x_to_y(elem):
        return QTorusElement({g: c * sigma(g) for g, c in elem.terms.items()})

    xprod = QTorusElement({g1 + g2: minus_q_half_power(skew_pair(g1, g2))})
    lhs = x_to_y(xprod)
    rhs = x_to_y(QTorusElement({g1: LaurentPoly.one()})).mul(
        x_to_y(QTorusElement({g2: LaurentPoly.one()})), NO_CUT)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# quantum dilogarithm series


def brute_eq_coefficients(jmax, qcut):
    """Independent oracle: expand prod_{k=0..qcut//2} (1 - x q^k) directly."""
    polys = [{0: Fraction(1)}]
    for k in range(0, qcut // 2 + 1):
        new = [dict(p) for p in polys] + [{}]
        for j in range(len(polys) - 1, -1, -1):
            for n, a in polys[j].items():
                tgt = new[j + 1]
                nn = n + 2 * k
                tgt[nn] = tgt.get(nn, Fraction(0)) - a
        polys = [{n: a for n, a in p.items() if a != 0 and n <= qcut} for p in new]
        if len(polys) > jmax + 1:
            polys = polys[: jmax + 1]
    return [LaurentPoly(p) for p in polys]


def test_eq_coefficients_against_bruteforce():
    qcut = 16
    got = eq_coefficients(5, qcut)
    want = brute_eq_coefficients(5, qcut)
    for j in range(6):
        assert got[j].truncate(qcut) == want[j], f"x^{j} coefficient differs"


def euler_eq_coefficient(j, qcut):
    """Euler: [x^j] E_q = (-1)^j q^(j(j-1)/2) / prod_{i<=j} (1 - q^i); the
    q^m coefficient of 1/prod counts the partitions of m into parts <= j."""
    parts = [1] + [0] * max(qcut, 0)
    for i in range(1, j + 1):
        for m in range(i, len(parts)):
            parts[m] += parts[m - i]
    return LaurentPoly({j * (j - 1) + 2 * m: (-1) ** j * c
                        for m, c in enumerate(parts)}).truncate(qcut)


@pytest.mark.parametrize("qcut", [0, 1, 2, 7, 12, 31, 64])
def test_eq_coefficients_match_euler(qcut):
    got = eq_coefficients(4, qcut)
    assert got == [euler_eq_coefficient(j, qcut) for j in range(5)]


@pytest.mark.parametrize("qcut", [10, 11, 40, 80])
@pytest.mark.parametrize("order", range(1, 7))
def test_inverse_eq_coefficients_match_generic_inverse(order, qcut):
    """Euler's 1/E_q(x) = sum_j x^j/(q;q)_j by its own recurrence equals the
    generic series inverse of the E_q series, and so does `qdilog_series`
    asked for the inverse."""
    e = RaySeries(DELTA, tuple(eq_coefficients(order, qcut)), qcut)
    assert tuple(eq_coefficients(order, qcut, inverse=True)) == e.inverse().coeffs
    pref = minus_q_half_power(1)
    assert (qdilog_series(pref, order, qcut, DELTA, inverse=True)
            == qdilog_series(pref, order, qcut, DELTA).inverse())


@pytest.mark.parametrize("qcut", [0, 1, 7, 31])
def test_inverse_eq_coefficients_count_partitions(qcut):
    """[x^j] 1/E_q = 1/prod_{i<=j} (1 - q^i): the q^m coefficient counts the
    partitions of m into parts <= j."""
    parts = [1] + [0] * qcut
    want = [LaurentPoly.one()]
    for j in range(1, 5):
        for m in range(j, len(parts)):
            parts[m] += parts[m - j]
        want.append(LaurentPoly({2 * m: c for m, c in enumerate(parts)}).truncate(qcut))
    assert eq_coefficients(4, qcut, inverse=True) == want


def test_eq_first_coefficient_geometric():
    # [x] E_q = -(1 + q + ... + q^(qcut/2)) at the chosen truncation
    qcut = 8
    got = eq_coefficients(1, qcut)[1]
    assert got == LaurentPoly({0: -1, 2: -1, 4: -1, 6: -1, 8: -1})


def test_qdilog_zero_prefactor_is_one():
    s = qdilog_series(LaurentPoly.zero(), 5, 20, DELTA)
    assert s.coeffs[0] == LaurentPoly.one()
    assert all(c.is_zero() for c in s.coeffs[1:])


def test_eq_functional_identity():
    """E_q(x) E_q(qx)^(-1) = 1 - x through order N, mod q-tails."""
    N, qcut = 5, 40
    e = qdilog_series(LaurentPoly.one(), N, qcut, DELTA)
    prod = e.mul(e.scale_arg(2).inverse())
    report = qcut - 2 * N
    assert prod.coeffs[0].truncate(report) == LaurentPoly.one()
    assert prod.coeffs[1].truncate(report) == LaurentPoly.from_scalar(-1)
    for j in range(2, N + 1):
        assert prod.coeffs[j].truncate(report).is_zero()


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_central_is_trivial():
    f = dt_ray(conifold_ray_charges("ell_n", 2), 4, 40)
    # gamma_m = delta pairs to zero with beta + 2 delta
    assert conjugation_element(f, DELTA) == QTorusElement.generator(DELTA)


def test_conjugate_beta_v_on_ell0_canonical():
    """Ad on beta^ along ell_0 is (1 - x_beta)^(-1) x_beta^ in x variables,
    i.e. alternating signs in the canonical y basis.  Intermediate inverses
    leave q-tails near the working cutoff, so compare below it."""
    qcut = 60
    f = dt_ray(conifold_ray_charges("ell_n", 0), 5, qcut)
    elem = conjugation_element(f, BETA_V)
    for j in range(6):
        g = ChargeVector(j, 0, 1, 0)
        assert elem.terms[g].truncate(qcut - 24) == LaurentPoly.from_scalar((-1) ** j)


BINOMIAL_COEFF = LaurentPoly({-1: 2, 3: -1, 9: 5})


@pytest.mark.parametrize("power,order", [(1, 4), (2, 5), (3, 3), (4, 3)])
def test_binomial_series(power, order):
    """1 + c u^power with c truncated at qcut, the one series past the order,
    and its e = -1 power, which multiplies it back to one exactly."""
    qcut = 6
    s = RaySeries.binomial(BETA, BINOMIAL_COEFF, power, 1, order, qcut)
    want = [LaurentPoly.one()] + [LaurentPoly.zero()] * order
    if power <= order:
        want[power] = LaurentPoly({-1: 2, 3: -1})
    assert s == RaySeries(BETA, tuple(want), qcut)
    one = RaySeries.one(BETA, order, qcut)
    inv = RaySeries.binomial(BETA, BINOMIAL_COEFF, power, -1, order, qcut)
    assert inv.mul(s) == one and s.mul(inv) == one


def repeated_power(s, e):
    """s^e by |e| products of s, or of its generic inverse for e < 0."""
    base = s if e >= 0 else s.inverse()
    acc = RaySeries.one(s.gamma0, s.order, s.qcut)
    for _ in range(abs(e)):
        acc = acc.mul(base)
    return acc


@pytest.mark.parametrize("e", range(-3, 4))
@pytest.mark.parametrize("power,order", [(1, 4), (2, 5), (3, 3), (4, 3)])
def test_binomial_power_matches_products(power, order, e):
    """(1 + c u^power)^e by the binomial theorem equals |e| products of the
    factor or of its generic inverse."""
    qcut = 6
    s = RaySeries.binomial(BETA, BINOMIAL_COEFF, power, 1, order, qcut)
    got = RaySeries.binomial(BETA, BINOMIAL_COEFF, power, e, order, qcut)
    assert got == repeated_power(s, e)


def test_binomial_power_of_monomials_matches_products():
    """The exact layer's factors have monomial coefficients; for those the
    binomial theorem equals the truncated products at every cutoff, also
    for exponents of both signs in the coefficient."""
    for half_exp in (-3, -1, 0, 2, 5):
        for a in (1, -1, 3):
            for qcut in (0, 1, 5, 12):
                for power, order in ((1, 5), (2, 5)):
                    c = LaurentPoly.monomial(half_exp, a)
                    s = RaySeries.binomial(DELTA, c, power, 1, order, qcut)
                    for e in range(-3, 4):
                        got = RaySeries.binomial(DELTA, c, power, e, order, qcut)
                        assert got == repeated_power(s, e), (half_exp, a, qcut, e)


def test_non_unit_constant_term_rejected():
    bad = RaySeries(DELTA, (LaurentPoly.zero(), LaurentPoly.one()), 20)
    with pytest.raises(ValueError):
        bad.inverse()


@pytest.mark.parametrize("c0", [LaurentPoly.from_scalar(2), LaurentPoly.from_scalar(-1),
                                LaurentPoly.monomial(1)])
def test_constant_term_other_than_one_rejected(c0):
    """Only a series with constant term 1 is inverted, so no coefficient of
    an inverse leaves the integers: 2, -1 and q^(1/2) are refused."""
    bad = RaySeries(DELTA, (c0, LaurentPoly.one()), 20)
    with pytest.raises(ValueError, match="is not 1"):
        bad.inverse()


@pytest.mark.parametrize("other", [RaySeries.one(BETA, 3, 8), RaySeries.one(DELTA, 2, 8)])
def test_mul_refuses_mismatched_series(other):
    """Series along different charges or to different orders are refused
    with a ValueError naming both charges and both orders, also under -O."""
    f = RaySeries.one(DELTA, 3, 8)
    with pytest.raises(ValueError) as exc:
        f.mul(other)
    msg = str(exc.value)
    for part in (repr(DELTA), repr(other.gamma0), "order 3", f"order {other.order}"):
        assert part in msg


def reference_mul(f, g):
    """Coefficients of f g term by term: each product truncated, then added."""
    out = [LaurentPoly.zero()] * (f.order + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs[:f.order + 1 - i]):
            out[i + j] = out[i + j] + (a * b).truncate(f.qcut)
    return out


def reference_inverse(f):
    """Coefficients of 1/f term by term: out_j = -sum_(i=1..j) c_i out_(j-i)."""
    out = [LaurentPoly.one()]
    for j in range(1, f.order + 1):
        acc = LaurentPoly.zero()
        for i in range(1, j + 1):
            acc = acc + (f.coeffs[i] * out[j - i]).truncate(f.qcut)
        out.append(-acc)
    return out


@st.composite
def ray_series_pairs(draw):
    """Two integer ray series with constant term 1, of one order (0 to 4) and
    cutoff, whose mixed-sign coefficients have exponents below, at and above
    the cutoff; up to 9 terms, so some products take the big-integer route."""
    order, qcut = draw(st.integers(0, 4)), draw(st.integers(0, 12))
    poly = st.dictionaries(st.integers(-3, qcut + 3), st.integers(-3, 3),
                           max_size=9).map(LaurentPoly)

    def series():
        rest = tuple(draw(poly) for _ in range(order))
        return RaySeries(DELTA, (LaurentPoly.one(),) + rest, qcut)
    return series(), series()


CANCEL_X = LaurentPoly({-1: 2, 3: -1, 5: 1})
CANCEL_F = RaySeries(DELTA, (LaurentPoly.one(), CANCEL_X, CANCEL_X * CANCEL_X), 6)


@given(ray_series_pairs())
@example((CANCEL_F, RaySeries(DELTA, (LaurentPoly.one(), -CANCEL_X, LaurentPoly.zero()), 6)))
@settings(max_examples=200, deadline=None)
def test_ray_series_sums_match_term_by_term(pair):
    """Each coefficient of mul and inverse, formed as one truncated sum of
    products, equals the products truncated and added one by one; no result
    stores a zero coefficient, and f times its inverse is the series 1.  The
    explicit example cancels partial products: (1 + x u)(1 - x u) has no u
    term, and 1/(1 + x u + x^2 u^2) no u^2 term."""
    f, g = pair
    prod, inv = f.mul(g), f.inverse()
    assert list(prod.coeffs) == reference_mul(f, g)
    assert list(inv.coeffs) == reference_inverse(f)
    for s in (prod, inv):
        assert (s.gamma0, s.order, s.qcut) == (f.gamma0, f.order, f.qcut)
        assert all(x != 0 for c in s.coeffs for _, x in c.items())
    assert f.mul(inv) == RaySeries.one(f.gamma0, f.order, f.qcut)


# ---------------------------------------------------------------------------
# DT products per ray


def test_dt_ray_ell_n_is_single_dilog_inverse():
    ray = conifold_ray_charges("ell_n", 1)
    got = dt_ray(ray, 4, 40)
    gamma = ChargeVector(1, 1)
    want = qdilog_series(minus_q_half_power(1), 4, 40, gamma).inverse()
    assert got.gamma0 == gamma
    assert got.coeffs == want.coeffs


def test_dt_ray_ell_inf_two_factors_per_k():
    ray = conifold_ray_charges("ell_inf", kmax=3)
    got = dt_ray(ray, 3, 40)
    acc = RaySeries.one(DELTA, 3, 40)
    for k in (1, 2, 3):
        acc = acc.mul(qdilog_series(LaurentPoly.one(), 3, 40, DELTA, power=k))
        acc = acc.mul(qdilog_series(LaurentPoly.monomial(2), 3, 40, DELTA, power=k))
    assert got.coeffs == acc.coeffs


def ray_and_expected(kind, n):
    """A named conifold ray (n is kmax on ell_inf), with the primitive
    charge and the multiples w it should carry."""
    if kind == "ell_inf":
        return conifold_ray_charges(kind, kmax=n), DELTA, list(range(1, n + 1))
    sign = 1 if kind == "ell_n" else -1
    return conifold_ray_charges(kind, n), ChargeVector(sign, sign * n), [1]


def reference_dt_ray(gamma0, factors, order, qcut):
    """DT product by generic inversion: each factor E_q(pref u^w)^e built as
    the E_q series, inverted by `RaySeries.inverse` for e < 0, and
    multiplied |e| times."""
    acc = RaySeries.one(gamma0, order, qcut)
    for pref, w, e in factors:
        acc = acc.mul(repeated_power(qdilog_series(pref, order, qcut, gamma0, w), e))
    return acc


@pytest.mark.parametrize("order,qcut", [(4, 40), (3, 101), (6, 24)])
@pytest.mark.parametrize("kind,n", [("ell_n", 0), ("ell_n", 2), ("-ell_n", -1),
                                    ("-ell_n", -3), ("ell_inf", 4)])
def test_dt_ray_matches_generic_inverse(kind, n, order, qcut):
    ray, gamma0, mults = ray_and_expected(kind, n)
    factors = []
    for w in mults:
        for m, omega_m in conifold_omega(w * gamma0).items():
            e = -omega_m if m % 2 == 0 else omega_m
            factors.append((minus_q_half_power(m + 1), w, e))
    got = dt_ray(ray, order, qcut)
    assert got == reference_dt_ray(gamma0, factors, order, qcut)
    # both signs of the exponent occur: E_q^(-1) on ell_n, E_q on ell_inf
    assert {e for _, _, e in factors} == ({1} if kind == "ell_inf" else {-1})


@pytest.mark.parametrize("build,calls", [
    (lambda: dt_ray(conifold_ray_charges("ell_n", 0), 4, 16), 0),
    (lambda: dt_ray(conifold_ray_charges("ell_inf", kmax=3), 4, 16), 5),
    (lambda: closed_form_element(conifold_ray_charges("ell_n", 0), BETA_V, 4, 16), 0),
    (lambda: closed_form_element(conifold_ray_charges("ell_inf", kmax=3),
                                 DELTA_V, 4, 16), 11),
])
def test_ray_products_never_multiply_by_one(monkeypatch, build, calls):
    """Each product is taken from its first factor, so n factors take n - 1
    products: one on ell_0; on ell_inf to k = 3, six DT factors (two per k)
    and twelve closed-form factors on delta_v (2k per k, as
    |<k delta, delta_v>| = k)."""
    real, seen = RaySeries.mul, []

    def counted(self, other):
        assert RaySeries.one(self.gamma0, self.order, self.qcut) not in (self, other)
        seen.append(other)
        return real(self, other)

    monkeypatch.setattr(RaySeries, "mul", counted)
    build()
    assert len(seen) == calls


def test_dt_ray_coefficients_are_integers():
    # refined DT invariants and the E_q coefficients are integers, so the
    # exact layer never leaves Z[q^(+-1/2)]
    series = dt_ray(conifold_ray_charges("ell_n", 1), 4, 400)
    coeffs = [a for c in series.coeffs for _, a in c.items()]
    assert len(coeffs) > 700
    assert all(type(a) is int for a in coeffs)


def test_dt_ray_empty_ray():
    """ell_inf at kmax = 0 (verify at --order-N 0) has no charges: its
    primitive charge is still delta, its DT product is the series 1, and it
    acts trivially by both routes."""
    ray = conifold_ray_charges("ell_inf", kmax=0)
    assert ray == Ray(DELTA, ())
    assert dt_ray(ray, 3, 20) == RaySeries.one(DELTA, 3, 20)
    res = bps_automorphism(S, ray, BETA_V, 3, 20)
    assert res.element == res.closed_form == QTorusElement.generator(BETA_V)


@pytest.mark.parametrize("kind,ns", [("ell_n", range(-8, 9)), ("-ell_n", range(-8, 9)),
                                     ("ell_inf", range(0, 9))])
def test_conifold_ray_record(kind, ns):
    """Each conifold ray states its primitive charge once, with every
    multiple w and the invariant components of w gamma0: w = 1 on ell_n and
    -ell_n, w = 1..kmax on ell_inf."""
    for n in ns:
        ray, gamma0, mults = ray_and_expected(kind, n)
        assert ray.gamma0 == gamma0 and math.gcd(*ray.gamma0.coords()) == 1
        assert [w for w, _ in ray.charges] == mults
        for w, comps in ray.charges:
            assert comps and comps == omega_components(conifold_omega(w * gamma0))


# ---------------------------------------------------------------------------
# BPS automorphisms: conjugation vs closed form


@pytest.mark.parametrize("n", range(0, 4))
@pytest.mark.parametrize("gname,g", [("beta_v", BETA_V), ("delta_v", DELTA_V),
                                     ("beta", BETA), ("delta", DELTA)])
def test_bps_automorphism_ell_n(n, gname, g):
    res = bps_automorphism(S, conifold_ray_charges("ell_n", n), g, 5, 20)
    assert res.element == res.closed_form
    if g.is_electric():
        assert res.element == QTorusElement.generator(g)


def test_bps_automorphism_ell_inf():
    ray = conifold_ray_charges("ell_inf", kmax=5)
    res = bps_automorphism(S, ray, BETA_V, 5, 20)
    assert res.element == QTorusElement.generator(BETA_V)   # acts trivially
    res = bps_automorphism(S, ray, DELTA_V, 5, 20)
    assert res.element == res.closed_form
    assert len(res.element.terms) > 1


def test_ell_inf_display_literal():
    """Action on x_delta^ along the delta-multiple ray equals
    prod_{m>=1} prod_{k=0}^{m-1}
        (1 - q^((2-m+2k)/2) x_(m d)) (1 - q^((-m+2k)/2) x_(m d))  x_delta^
    (x and y coincide on delta multiples since sigma(delta) = 1)."""
    N, qcut, report = 4, 200, 150
    elem = bps_automorphism(S, conifold_ray_charges("ell_inf", kmax=N),
                            DELTA_V, N, qcut).element
    acc = RaySeries.one(DELTA, N, qcut)
    for m in range(1, N + 1):
        for k in range(m):
            for e_half in (2 - m + 2 * k, -m + 2 * k):
                base = [LaurentPoly.zero()] * (N + 1)
                base[0] = LaurentPoly.one()
                base[m] = LaurentPoly.monomial(e_half, -1)
                acc = acc.mul(RaySeries(DELTA, tuple(base), qcut))
    want = acc.as_element(carrier=DELTA_V)
    assert elem.truncate_q(report) == want.truncate_q(report)


def test_closed_form_matches_x_display_ell_n():
    """Sign absorption: with sigma(beta) = -1, sigma(delta) = 1 the signed
    closed-form factors become plain q-powers,
    S(ell_n)(x_delta^) = prod_k (1 - q^((1-n+2k)/2) x_(beta+n delta))^(-1) x_delta^.
    In canonical y-variables (x_(beta+n delta) = -y_(beta+n delta)) that is
    prod_k (1 + q^((1-n+2k)/2) u)^(-1)."""
    n, N, qcut = 3, 6, 200
    gamma0 = ChargeVector(1, n)
    assert sigma(gamma0) == -1
    elem = closed_form_element(conifold_ray_charges("ell_n", n), DELTA_V, N, qcut)
    acc = RaySeries.one(gamma0, N, qcut)
    for k in range(n):
        base = [LaurentPoly.zero()] * (N + 1)
        base[0] = LaurentPoly.one()
        base[1] = LaurentPoly.monomial(1 - n + 2 * k)   # +q^((1-n+2k)/2) u
        acc = acc.mul(RaySeries(gamma0, tuple(base), qcut).inverse())
    for j in range(N + 1):
        g = ChargeVector(j, j * n, 0, 1)
        got = elem.terms.get(g, LaurentPoly.zero()).truncate(qcut - 40)
        assert got == acc.coeffs[j].truncate(qcut - 40), f"coefficient at u^{j}"


def test_automorphism_property_on_monomials():
    """S(a * b) = S(a) * S(b) exactly for monomial pairs (tails near the
    working q-cutoff stripped before comparison)."""
    N, qcut, report = 2, 400, 300
    f = dt_ray(conifold_ray_charges("ell_n", 1), 2 * N, qcut)
    for ga, gb in [(BETA_V, DELTA_V), (DELTA_V, DELTA_V), (BETA_V, BETA)]:
        Sa = conjugation_element(f, ga)
        Sb = conjugation_element(f, gb)
        Sab = conjugation_element(f, ga + gb)
        lhs = Sa.mul(Sb, qcut)
        tw = LaurentPoly.monomial(skew_pair(ga, gb))
        rhs = QTorusElement({g: c * tw for g, c in Sab.terms.items()})
        # both sides are series in u = y_(beta+delta) over y_(ga+gb); the
        # product side runs to u^(4N), the direct side to u^(2N)
        lhs_cut = QTorusElement({g: c for g, c in lhs.terms.items()
                                 if (g - ga - gb).a <= 2 * N}).truncate_q(report)
        assert lhs_cut == rhs.truncate_q(report)


# ---------------------------------------------------------------------------
# sector automorphism


def test_sector_beta_v_ignores_delta_ray():
    """<delta, beta_v> = 0, so the delta-multiple ray contributes no factor:
    composing with or without ell_inf gives the same multiplier."""
    import conifoldrh.qtorus as qt
    with_inf = sector_from_rays(S, BETA_V, 2, 2, 60)
    res = qt.bps_automorphism(S, conifold_ray_charges("ell_inf", kmax=2),
                              BETA_V, 2, 60)
    assert res.element == QTorusElement.generator(BETA_V)
    assert with_inf == sector_closed_form(BETA_V, 2, 2, 60)


def test_ray_action_builds_no_closed_form(monkeypatch):
    """ray_action is bps_automorphism's conjugation route alone; it and
    sector_from_rays never build the closed form."""
    import conifoldrh.qtorus as qt
    ray = conifold_ray_charges("ell_n", 1)
    want = bps_automorphism(S, ray, DELTA_V, 4, 16).element

    def refuse(*args):
        raise AssertionError("closed form built")

    monkeypatch.setattr(qt, "closed_form_element", refuse)
    assert qt.ray_action(ray, DELTA_V, 4, 16) == want
    assert qt.ray_action(ray, BETA, 4, 16) == QTorusElement.generator(BETA)
    assert sector_from_rays(S, BETA_V, 2, 2, 24) == sector_closed_form(BETA_V, 2, 2, 24)


def test_sector_delta_is_identity():
    elem = sector_closed_form(DELTA, 2, 2, 60)
    assert elem == QTorusElement.generator(ChargeVector())


@pytest.mark.parametrize("g", [BETA_V, DELTA_V])
def test_sector_matches_ray_composition(g):
    # bidegree 3 inverts a delta factor through u^3 (jmax = 3); bidegree 2 stops at u^2
    for d, qcut in ((2, 60), (3, 24)):
        assert sector_closed_form(g, d, d, qcut) == sector_from_rays(S, g, d, d, qcut)


@pytest.mark.parametrize("g", [BETA_V, DELTA_V, DELTA, BETA_V - DELTA_V])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sector_closed_form_exact_at_every_cutoff(g, d):
    """Factors with q^(h/2), h < 0, pull terms down across the cutoff; the
    product at qcut is the product at a far higher cutoff, truncated."""
    for qcut in range(0, 7):
        assert (sector_closed_form(g, d, d, qcut)
                == sector_closed_form(g, d, d, qcut + 60).truncate_q(qcut)), qcut


@pytest.mark.parametrize("adeg,bdeg", [(1, 3), (3, 1)])
def test_sector_refuses_unequal_degrees(adeg, bdeg):
    """At (1, 3) the two routes disagree on delta_v: the bidegree box is not
    closed under the product, so both refuse unequal degrees."""
    with pytest.raises(ValueError, match=f"adeg={adeg}, bdeg={bdeg}"):
        sector_closed_form(DELTA_V, adeg, bdeg, 4)
    with pytest.raises(ValueError, match=f"adeg={adeg}, bdeg={bdeg}"):
        sector_from_rays(S, DELTA_V, adeg, bdeg, 4)


@pytest.mark.parametrize("g", [BETA_V, DELTA_V, DELTA, BETA_V - DELTA_V])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sector_from_rays_exact_at_every_cutoff(g, d):
    """Later ray multipliers carry negative q-powers; the composition at qcut
    is the composition at a far higher cutoff, truncated, and so equals the
    closed form at every cutoff."""
    for qcut in range(0, 7):
        composed = sector_from_rays(S, g, d, d, qcut)
        assert composed == sector_from_rays(S, g, d, d, qcut + 60).truncate_q(qcut), qcut
        assert composed == sector_closed_form(g, d, d, qcut), qcut


@pytest.mark.parametrize("kind,n", [("ell_n", 0), ("ell_n", 1), ("ell_n", 2),
                                    ("-ell_n", -1), ("-ell_n", -2), ("ell_inf", 4)])
def test_ray_routes_exact_at_every_cutoff(kind, n):
    """ray_action, closed_form_element and bps_automorphism at qcut equal
    their values at qcut + 60, truncated, for N <= 4 and qcut <= 8."""
    ray = (conifold_ray_charges("ell_inf", kmax=n) if kind == "ell_inf"
           else conifold_ray_charges(kind, n))
    for g in (BETA_V, DELTA_V, BETA_V - DELTA_V, 2 * BETA_V + DELTA_V, -DELTA_V):
        for order in range(0, 5):
            for qcut in range(0, 9):
                action = ray_action(ray, g, order, qcut + 60).truncate_q(qcut)
                closed = closed_form_element(ray, g, order, qcut + 60).truncate_q(qcut)
                assert ray_action(ray, g, order, qcut) == action, (g, order, qcut)
                assert closed_form_element(ray, g, order, qcut) == closed, (g, order, qcut)
                assert bps_automorphism(S, ray, g, order, qcut) == AutomorphismResult(
                    action, closed)


def test_dt_factors_carry_no_negative_q_power():
    """Every DT factor E_q((-q^(1/2))^(n+1) y_g) on a conifold ray has
    n + 1 >= 0, so a DT product and its inverse carry no negative q-power:
    ray_action's working margin N |c| rests on this."""
    rays = [conifold_ray_charges(kind, n) for kind in ("ell_n", "-ell_n")
            for n in range(-8, 9)]
    rays.append(conifold_ray_charges("ell_inf", kmax=8))
    ns = [n for ray in rays for _, comps in ray.charges for n, _ in comps]
    assert ns and all(n + 1 >= 0 for n in ns)


@pytest.mark.parametrize("g", [BETA_V, DELTA_V])
def test_sector_coefficients_are_integers(g):
    elem = sector_from_rays(S, g, 3, 3, 60)
    coeffs = [a for c in elem.terms.values() for _, a in c.items()]
    assert coeffs and all(type(a) is int for a in coeffs)

