"""Command-line front end: evaluate the special functions and solution
functions, run named verification suites, sweep parameters, scan regions.

Exit codes: 0 ok, 1 failed check, 2 precondition violation, 3 numerical
failure, 64 usage error.  All output is schema-versioned strict JSON (or CSV
for sweeps); wall-clock times live in a separate "timing" field so the rest of
the record is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import rhsolver, multisine, lattice
from .bernoulli import bernoulli_poly, multiple_bernoulli
from .checks import RegionError, Residual
from .laurent import LaurentPoly
from .contour import QuadratureError
from .rhsolver import SolutionPoint

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

DEFAULT_POINT = {
    "v": 0.30 + 0.40j,
    "w": 1.0 + 0.0j,
    "t": -0.20 - 0.70j,
    "tau": 0.15j,
}

#: eval target -> (the --param names it reads, whether it honours --tol);
#: multiple_bernoulli also reads w1..wr
EVAL_TARGETS = {
    "qdilog": (("x", "q"), True),
    "F": (("z", "w1bar", "w2"), True),
    "G": (("z", "w1", "w1t", "w2"), True),
    "Fstar": (("z", "w1bar", "w2"), False),
    "Gstar": (("z", "w1", "w1t", "w2"), False),
    "Bn": (("v", "w", "t", "n"), False),
    "Dn": (("v", "w", "t", "tau", "n"), False),
    "Z_cs": (("delta", "mu", "beta"), False),
    "bernoulli": (("n", "z"), False),
    "multiple_bernoulli": (("n", "r", "z"), False),
    "moments": (("order", "z", "w1bar", "w1", "w1t"), False),
}

#: --param names each sweep target reads (asym-order-* schedules vary w2,
#: the others t)
_POINT_PARAMS = ("v", "w", "t", "tau", "n")
SWEEP_PARAMS = {
    "qrh-limit-B": _POINT_PARAMS, "qrh-limit-D": _POINT_PARAMS,
    "growth-B": _POINT_PARAMS, "growth-D": _POINT_PARAMS,
    "asym-order-F": ("z", "K", "w1bar", "w2dir"),
    "asym-order-G": ("z", "K", "w1", "w1t", "w2dir"),
}

REGION_PARAMS = ("v", "w", "t", "n")

class UsageError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    """A computed value is infinite or NaN."""


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style complex values: '1.5', '2i', '1.5-2i', '-i'.
    `complex()` reads the value once every character is a decimal digit or
    one of '.eE+-ij', which keeps out what it alone would take ('(1+2j)',
    '1_0', '1J', 'inf', 'nan').  A part that is not finite (1e400 reads as
    inf) is refused."""
    s = text.strip()
    try:
        if not all(ch.isdecimal() or ch in ".eE+-ij" for ch in s):
            raise ValueError
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse complex value {text!r}") from None
    if not cmath.isfinite(z):
        raise UsageError(f"complex value {text!r} is not finite")
    return z


def _tolerance(text: str) -> float:
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return float(text)


def _params_dict(args) -> dict[str, complex]:
    out = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        name, val = item.split("=", 1)
        out[name.strip()] = parse_complex(val)
    return out


def _check_names(params: dict, accepted, what: str, shown=None) -> None:
    """Refuse a --param name outside `accepted`; the message lists `shown`
    (default `accepted`)."""
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UsageError(f"unknown --param {', '.join(unknown)} for {what}; "
                         f"accepted: {', '.join(shown or accepted)}")


def _int_param(params: dict, name: str, default: int | None = None) -> int:
    if name not in params and default is not None:
        return default
    z = params[name]
    if z.imag != 0 or not z.real.is_integer():
        raise UsageError(f"--param {name} must be an integer, got {z}")
    return int(z.real)


def _point(params: dict) -> SolutionPoint:
    merged = {**DEFAULT_POINT, **params}
    return SolutionPoint(v=merged["v"], w=merged["w"], t=merged["t"],
                         tau=merged["tau"], n=_int_param(params, "n", 0))


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> dict:
    params = _params_dict(args)
    target = args.target
    what = f"eval --target {target}"
    accepted, honours_tol = EVAL_TARGETS[target]
    shown = accepted
    if target == "multiple_bernoulli" and "r" in params:
        # w<i> is read by its pattern, so the check costs nothing per unused i
        r = _int_param(params, "r")
        accepted += tuple(name for name in params
                          if re.fullmatch(r"w[1-9][0-9]*", name) and int(name[1:]) <= r)
        shown += (f"w1..w{r}",)
    _check_names(params, accepted, what, shown)
    if honours_tol:
        tol = args.tol if args.tol is not None else 1e-10
    elif args.tol is not None:
        readers = [t for t, (_, reads_tol) in EVAL_TARGETS.items() if reads_tol]
        raise UsageError(f"--tol is not honoured by {what} "
                         f"(only by targets {', '.join(readers)})")
    else:
        tol = None
    err_est = None
    predicates = []

    if target == "qdilog":
        value = multisine.qdilog_numeric(params["x"], params.get("q", 0j),
                                         tol=max(tol, 1e-14))
    elif target == "F":
        value = multisine.F_value(params["z"], params["w1bar"], params["w2"],
                                  tol=max(tol * 1e-2, 1e-14))
    elif target == "G":
        value, err_est = multisine.log_G_value(
            params["z"], params["w1"], params["w1t"], params["w2"],
            max(tol * 1e-2, 1e-13))
        value = cmath.exp(value)
    elif target == "Fstar":
        predicates = multisine.F_star_predicates(params["z"], params["w1bar"])
        value = multisine.F_star(params["z"], params["w1bar"], params["w2"])
    elif target == "Gstar":
        predicates = multisine.G_star_predicates(params["z"], params["w1"],
                                                 params["w1t"])
        value = multisine.G_star(params["z"], params["w1"], params["w1t"],
                                 params["w2"])
    elif target in ("Bn", "Dn"):
        p, solution = _point(params), rhsolver.SOLUTIONS[target[0]]
        predicates, value = solution.predicates(p), solution.value(p)
    elif target == "Z_cs":
        value = rhsolver.refined_cs_partition(params["delta"], params["mu"],
                                              params["beta"])
    elif target == "bernoulli":
        value = complex(bernoulli_poly(_int_param(params, "n"), params.get("z", 0j)))
    elif target == "multiple_bernoulli":
        n, r = _int_param(params, "n"), _int_param(params, "r")
        omegas = [params[f"w{i}"] for i in range(1, r + 1)]
        value = complex(multiple_bernoulli(n, r, params.get("z", 0j), omegas))
    elif target == "moments":
        order = _int_param(params, "order")
        if "w1bar" in params and ("w1" in params or "w1t" in params):
            raise UsageError(f"{what} takes either w1bar (F moment) "
                             "or w1, w1t (G moment), not both")
        if "w1bar" in params:
            value = multisine.f_moment(order, params["z"], params["w1bar"])
        else:
            value = multisine.g_moment(order, params["z"], params["w1"],
                                       params["w1t"])
    else:  # pragma: no cover
        raise UsageError(f"unknown target {target}")
    value = complex(value)
    if not cmath.isfinite(value):
        raise NonFiniteError(f"{what} gave the non-finite value {value}")

    return {
        "target": target,
        "params": params,
        "value": value,
        "error_estimate": err_est,
        "tolerance": tol,
        "predicates": [q.to_json() for q in predicates],
    }


# ---------------------------------------------------------------------------
# verification suites


def _euler_ell0(order: int, qcut: int) -> list[LaurentPoly]:
    """u^j coefficients, j <= order, of the ell_0 ray E_q(-q^(1/2) u)^(-1)
    (single charge beta, Omega = 1) by Euler's identity: (-q^(1/2))^j over
    prod_{i<=j} (1 - q^i), whose q^m coefficient counts the partitions of m
    into parts <= j; truncated above q^(qcut/2)."""
    parts = [1] + [0] * (qcut // 2)
    out = [LaurentPoly.one()]
    for j in range(1, order + 1):
        for m in range(j, len(parts)):
            parts[m] += parts[m - j]
        out.append(LaurentPoly({j + 2 * m: (-1) ** j * c
                                for m, c in enumerate(parts)}).truncate(qcut))
    return out


def _suite_algebra(order_n: int, qcut: int) -> list[Residual]:
    from . import qtorus
    from .lattice import BETA, BETA_V, DELTA, DELTA_V
    s = lattice.conifold_bps(DEFAULT_POINT["v"], DEFAULT_POINT["w"])
    out = []
    charges = (("beta_v", BETA_V), ("delta_v", DELTA_V),
               ("beta", BETA), ("delta", DELTA))
    for n in range(0, 3):
        ray = qtorus.conifold_ray_charges("ell_n", n)
        for name, g in charges:
            res = qtorus.bps_automorphism(s, ray, g, order_n, qcut)
            out.append(Residual.exact(
                f"Sq(ell_{n})({name}): conjugation == closed form",
                res.element, res.closed_form,
                meta={"element": res.element.to_json()}))
    ray = qtorus.conifold_ray_charges("ell_inf", kmax=order_n)
    for name, g in charges:
        res = qtorus.bps_automorphism(s, ray, g, order_n, qcut)
        out.append(Residual.exact(
            f"Sq(ell_inf)({name}): conjugation == closed form",
            res.element, res.closed_form))
    dt = qtorus.dt_ray(qtorus.conifold_ray_charges("ell_n", 0), order_n, qcut)
    out.append(Residual.exact("DT(ell_0) ray series == Euler expansion",
                              list(dt.coeffs), _euler_ell0(order_n, qcut),
                              meta={"series": dt.to_json()}))
    for name, g in (("beta_v", BETA_V), ("delta_v", DELTA_V), ("delta", DELTA)):
        direct = qtorus.sector_closed_form(g, 2, 2, qcut)
        composed = qtorus.sector_from_rays(s, g, 2, 2, qcut)
        out.append(Residual.exact(
            f"Sq(Delta)({name}) bidegree (2,2): display == ray composition",
            direct, composed))
    return out


def _suite_dilog(order_n: int, qcut: int, tol: float) -> list[Residual]:
    from . import qtorus
    from .lattice import DELTA
    out = []
    e = qtorus.qdilog_series(LaurentPoly.one(), order_n, qcut, DELTA)
    eq = e.scale_arg(2)   # E_q(q x)
    prod = e.mul(eq.inverse())
    expect = [LaurentPoly.one(), LaurentPoly.from_scalar(-1)] + \
        [LaurentPoly.zero()] * (order_n - 1)
    report = qcut - 2 * order_n
    out.append(Residual.exact("E_q(x) E_q(qx)^(-1) == 1 - x (mod tails)",
                              [c.truncate(report) for c in prod.coeffs],
                              [c.truncate(report) for c in expect[:order_n + 1]]))
    inv = qtorus.qdilog_series(LaurentPoly.one(), order_n, qcut, DELTA, inverse=True)
    out.append(Residual.exact("E_q(x)^(-1) by Euler's series == generic inverse",
                              list(inv.coeffs), list(e.inverse().coeffs)))
    out.append(Residual.compare("qdilog_numeric(0, q) == 1",
                                multisine.qdilog_numeric(0, 0.5), 1.0, tol))
    out.append(Residual.compare("qdilog_numeric(x, 0) == 1 - x",
                                multisine.qdilog_numeric(0.3 + 0.1j, 0.0),
                                0.7 - 0.1j, tol))
    out.append(Residual.compare("qdilog_numeric(1/2, 1/2)",
                                multisine.qdilog_numeric(0.5, 0.5),
                                0.2887880950866024, 1e-10))
    return out


def _suite_bernoulli() -> list[Residual]:
    out = []
    out.append(Residual.exact("B_1(0) == -1/2",
                              bernoulli_poly(1, Fraction(0)), Fraction(-1, 2)))
    out.append(Residual.exact("B_2(0) == 1/6",
                              bernoulli_poly(2, Fraction(0)), Fraction(1, 6)))
    z = Fraction(3, 7)
    w1, w2 = Fraction(2, 3), Fraction(5, 4)
    out.append(Residual.exact(
        "B_{0,2} == 1/(w1 w2)",
        multiple_bernoulli(0, 2, z, [w1, w2]), 1 / (w1 * w2)))
    out.append(Residual.exact(
        "B_{1,2} == z/(w1 w2) - (w1+w2)/(2 w1 w2)",
        multiple_bernoulli(1, 2, z, [w1, w2]),
        z / (w1 * w2) - (w1 + w2) / (2 * w1 * w2)))
    out.append(Residual.exact(
        "B_{2,2} closed form",
        multiple_bernoulli(2, 2, z, [w1, w2]),
        z * z / (w1 * w2) - (1 / w1 + 1 / w2) * z
        + Fraction(1, 6) * (w2 / w1 + w1 / w2) + Fraction(1, 2)))
    out.append(Residual.exact(
        "B_{2,2}(0 | 1, 1) == 5/6",
        multiple_bernoulli(2, 2, Fraction(0), [Fraction(1), Fraction(1)]),
        Fraction(5, 6)))
    w = [w1, w2, Fraction(-7, 5)]
    s1, p2 = sum(w), sum(wi * wi for wi in w)
    s2 = (s1 * s1 - p2) / 2     # sum_{i<j} w_i w_j
    out.append(Residual.exact(
        "B_{3,3} closed form",
        multiple_bernoulli(3, 3, z, w),
        (z ** 3 - Fraction(3, 2) * s1 * z ** 2 + (p2 + 3 * s2) / 2 * z
         - s1 * s2 / 4) / math.prod(w)))
    c = 0.7 + 0.3j
    lhs = multiple_bernoulli(2, 3, c * (0.2 + 0.1j), [c * 1.0, c * (1 + 0.2j), c * 0.8])
    rhs = c ** (2 - 3) * multiple_bernoulli(2, 3, 0.2 + 0.1j, [1.0, 1 + 0.2j, 0.8])
    out.append(Residual.compare("homogeneity B_{n,r}(cz|cw) = c^(n-r) B_{n,r}", lhs, rhs, 1e-12))
    return out


def _difference_points(count: int):
    import random
    rng = random.Random(20240517)
    pts = []
    while len(pts) < count:
        w1 = 1 + complex(rng.uniform(0.02, 0.2), rng.uniform(0.05, 0.25))
        w1t = 1 + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.22, -0.04))
        w2 = cmath.exp(1j * rng.uniform(-1.35, -0.7)) * rng.uniform(0.6, 1.2)
        z = 0.25 + complex(rng.uniform(-0.05, 0.1), rng.uniform(0.35, 0.6))
        if all(p.ok for p in multisine.G_star_predicates(z, w1, w1t)
               + multisine.reflection_predicates(w1, w1t, w2)):
            pts.append((z, w1, w1t, w2))
    return pts


def _suite_difference(tol: float) -> list[Residual]:
    out = []
    for i, (z, w1, w1t, w2) in enumerate(_difference_points(3)):
        ob = (w1 + w1t) / 2
        x1 = cmath.exp(2j * math.pi * z / ob)
        x2 = cmath.exp(2j * math.pi * z / w2)
        Fv = multisine.F_value
        out.append(Residual.compare(
            f"difF shift w1bar [{i}]", Fv(z + ob, ob, w2) / Fv(z, ob, w2),
            1 / (1 - x2), tol))
        out.append(Residual.compare(
            f"difF shift w2 [{i}]", Fv(z + w2, ob, w2) / Fv(z, ob, w2),
            1 / (1 - x1), tol))
        # the difference equations below hold for the residue series term by
        # term, so the series is also checked against the integral itself
        ls, es = multisine.log_G_series(z, w1, w1t, w2)
        lc, ec = multisine.log_G_contour(z, w1, w1t, w2)
        out.append(Residual.compare(f"log G series = contour [{i}]", ls, lc, tol,
                                    meta={"error_bounds": [es, ec]}))
        lg = multisine.log_G_cached(z, w1, w1t, w2)[0]
        out.append(Residual.compare(
            f"difG1 [{i}]",
            cmath.exp(multisine.log_G_cached(z + w1, w1, w1t, w2)[0] - lg),
            1 / Fv(z + ob, w1t, w2), tol))
        out.append(Residual.compare(
            f"difG2 [{i}]",
            cmath.exp(multisine.log_G_cached(z + w1t, w1, w1t, w2)[0] - lg),
            1 / Fv(z + ob, w1, w2), tol))
        out.append(Residual.compare(
            f"diffF (starred) [{i}]",
            multisine.F_star(z + ob, ob, w2) / multisine.F_star(z, ob, w2),
            1 / (1 - x2), tol))
        lgs = multisine.log_G_star(z, w1, w1t, w2)
        out.append(Residual.compare(
            f"diffG1 (starred) [{i}]",
            cmath.exp(multisine.log_G_star(z + w1, w1, w1t, w2) - lgs),
            1 / multisine.F_star(z + ob, w1t, w2), tol))
        out.append(Residual.compare(
            f"diffG2 (starred) [{i}]",
            cmath.exp(multisine.log_G_star(z + w1t, w1, w1t, w2) - lgs),
            1 / multisine.F_star(z + ob, w1, w2), tol))
    return out


def _suite_reflection(tol: float) -> list[Residual]:
    out = []
    for i, (z, w1, w1t, w2) in enumerate(_difference_points(2)):
        ob, dw = (w1 + w1t) / 2, (w1 - w1t) / 2
        Fv = multisine.F_value
        out.append(Residual.compare(
            f"FF1 [{i}]", Fv(z + w2, ob, w2) * Fv(z, ob, -w2),
            multisine.reflection_rhs_F(z, w1, w1t, w2), tol))
        lhs = cmath.exp(multisine.log_G_cached(z + w2, w1, w1t, w2)[0]
                        + multisine.log_G_cached(z, w1, w1t, -w2)[0])
        out.append(Residual.compare(
            f"GG1 [{i}]", lhs, multisine.reflection_rhs_G(z, w1, w1t, w2), tol))
        out.append(Residual.compare(
            f"FF2 [{i}]",
            multisine.F_star(z, ob, w2) * multisine.F_star(z, ob, -w2),
            multisine.reflection_rhs_F(z, w1, w1t, w2), tol))
        lhs = cmath.exp(multisine.log_G_star(z, w1, w1t, w2)
                        + multisine.log_G_star(z, w1, w1t, -w2))
        rhs = (multisine.reflection_rhs_G(z, w1, w1t, w2)
               / multisine.reflection_rhs_G(dw, w1, w1t, w2))
        out.append(Residual.compare(f"GG2 (constant-corrected) [{i}]", lhs, rhs, tol))
    v, w = DEFAULT_POINT["v"], DEFAULT_POINT["w"]
    p_iv = SolutionPoint(v, w, 0.20 + 0.70j, 0.15 * cmath.exp(1.9j), 0)
    out.append(rhsolver.reflection_B(p_iv, tol))
    out.append(rhsolver.reflection_D(p_iv, tol))
    return out


def _suite_asymptotics() -> list[Residual]:
    z, ob = 0.3 + 0.4j, 1 + 0.05j
    w1, w1t = 1 + 0.1j, 0.95 - 0.07j
    out = [multisine.asymptotic_order_small_w2(mode, zm, params, K, cmath.exp(-0.2j))
           for K in (1, 2, 4)
           for mode, zm, params in (("F", z, (ob,)), ("G", 0.25 + 0.45j, (w1, w1t)))]
    out += multisine.asymptotic_infinity_fit("F", z, (ob,), cmath.exp(-0.3j))
    out += multisine.asymptotic_infinity_fit("G", 0.2 + 0.5j, (w1, w1t),
                                             cmath.exp(-0.3j))
    for d in (1, 2, 3, 4):
        out.append(multisine.residue_lemma_check(1.0 + 0j, d))
    out.append(multisine.residue_lemma_check(1 + 0.2j, 2))
    out.append(multisine.residue_lemma_check(0.7 - 0.3j, 3))
    return out


def _suite_wallcrossing(order_n: int, qcut: int, tol: float) -> list[Residual]:
    p0 = _point({})
    out = [wallcross(p0._replace(n=n), tol) for n in (0, 1, 2)
           for wallcross in (rhsolver.wallcross_B, rhsolver.wallcross_D)]
    # telescoping: X_m/X_0 equals the product of the individual jumps
    m = 4
    for sol in rhsolver.SOLUTIONS.values():
        lhs = cmath.exp(sol.log(p0._replace(n=m)) - sol.log(p0))
        rhs = math.prod(rhsolver.jump(p0._replace(n=n), sol.gamma_m) for n in range(m))
        out.append(Residual.compare(f"{sol.name} telescoping to m={m}", lhs, rhs, tol))
    out.append(_extension_consistency(tol))
    out.append(_inversion_identity(order_n, qcut))
    return out


def _extension_consistency(tol: float) -> Residual:
    """Symmetry extension R_(-l,-gm)(-t) = R_(l,gm)(t): for B it is the
    equality of B_0(t) with F*(v | w, -t) at the mirrored slot -t.  B_0 takes
    the product route (Im(-t/w) > 0 at the default point), the mirrored side
    the contour integral plus Q_F, so the two share no evaluation of F."""
    p0 = _point({})
    lhs = cmath.exp(rhsolver.log_B_n(p0))
    rhs = cmath.exp(multisine.log_F_contour(p0.v, p0.w, -p0.t)[0]
                    + multisine.q_F(p0.v, p0.w, -p0.t))
    return Residual.compare("extension consistency (B, mirrored)", lhs, rhs, tol,
                            meta={"mirror_t": -p0.t})


def _inversion_identity(order_n: int, qcut: int) -> Residual:
    """R_(l,-gm) R_(l,gm) == 1 through u-order N: each side computed by its
    own conjugation, on rays ell_1 and ell_inf, for both magnetic generators,
    at the `_enlarged` cutoff of 2N |c|, c = <gamma0, gm> with gamma0 the
    ray's primitive charge: N |c| for each side's lowest power and for the
    twist (j+k) c.  Each ray's DT product is built once, at the largest
    cutoff `ray_action` takes for a side (N |c| more); each side is exact at
    its own.  On ell_inf at N = 0, a ray with no charges, the DT product is 1."""
    from . import qtorus
    from .lattice import BETA_V, DELTA_V, ChargeVector, skew_pair
    one = qtorus.QTorusElement.generator(ChargeVector())
    rays = (("ell_1", qtorus.conifold_ray_charges("ell_n", 1)),
            ("ell_inf", qtorus.conifold_ray_charges("ell_inf", kmax=order_n)))
    prods = {}
    for ray_name, ray in rays:
        cs = {gm: abs(skew_pair(ray.gamma0, gm)) for gm in (BETA_V, DELTA_V)}
        dt = qtorus.dt_ray(ray, order_n, qtorus._enlarged(qcut, [(3 * order_n, -max(cs.values()))]))
        for name, gm in (("beta_v", BETA_V), ("delta_v", DELTA_V)):
            work = qtorus._enlarged(qcut, [(2 * order_n, -cs[gm])])
            inv, fwd = (qtorus.conjugation_element(dt, g).truncate_q(work) for g in (-gm, gm))
            prods[f"{ray_name} {name}"] = inv.mul(fwd, work).truncate_electric(
                order_n).truncate_q(qcut)
    return Residual.exact("inversion identity R(-gm) R(gm) == 1",
                          list(prods.values()), [one] * len(prods),
                          meta={"pairs": {k: p == one for k, p in prods.items()}})


def _suite_qrh_limits() -> list[Residual]:
    v, w = DEFAULT_POINT["v"], DEFAULT_POINT["w"]
    t_sw = 0.8 * cmath.exp(1j * (math.pi - 0.5))
    tau_sw = 0.15 * cmath.exp(1.2j)
    out = [rhsolver.qrh2_limit(SolutionPoint(v, w, t_sw, tau_sw, n), sol)
           for n in (0, 1) for sol in rhsolver.SOLUTIONS.values()]
    return out + [rhsolver.check_qrh3_growth(SolutionPoint(v, w, t_sw, tau_sw, 1), sol)
                  for sol in rhsolver.SOLUTIONS.values()]


def _suite_cs_match(tol: float) -> list[Residual]:
    base = [(0.20 + 0.70j, 0.15 * cmath.exp(1.9j), 0.30 + 0.40j),
            (0.15 + 0.60j, 0.12 * cmath.exp(2.0j), 0.25 + 0.35j),
            (0.10 + 0.55j, 0.10 * cmath.exp(2.1j), 0.20 + 0.30j)]
    out = []
    for t, tau, v in base:
        p = rhsolver.cs_point(t, tau, v)
        out.append(rhsolver.cs_match_residual(p, tol))
    out.append(_zcs_finite())
    return out


def _zcs_finite() -> Residual:
    """Z_cs at beta = 1, where sqrt(beta) = 1/sqrt(beta): holds iff finite."""
    z1 = rhsolver.refined_cs_partition(1.2 + 0.4j, 0.8 + 0.3j, 1.0 + 0j)
    return Residual.exact("Z_cs finite at beta=1", cmath.isfinite(z1), True,
                          meta={"value": z1})


#: suite -> (its function, the verify options it reads in parameter order);
#: --suite all runs every suite and accepts every option
SUITES = {
    "algebra": (_suite_algebra, ("--order-N", "--order-K")),
    "dilog": (_suite_dilog, ("--order-N", "--order-K", "--tol")),
    "bernoulli": (_suite_bernoulli, ()),
    "difference": (_suite_difference, ("--tol",)),
    "reflection": (_suite_reflection, ("--tol",)),
    "asymptotics": (_suite_asymptotics, ()),
    "wallcrossing": (_suite_wallcrossing, ("--order-N", "--order-K", "--tol")),
    "qrh-limits": (_suite_qrh_limits, ()),
    "cs-match": (_suite_cs_match, ("--tol",)),
}


def cmd_verify(args) -> dict:
    given = {"--tol": args.tol, "--order-N": args.order_n, "--order-K": args.order_k}
    reads = given if args.suite == "all" else SUITES[args.suite][1]
    for flag, value in given.items():
        if value is not None and flag not in reads:
            readers = [s for s, (_, opts) in SUITES.items() if flag in opts]
            raise UsageError(f"{flag} is not honoured by verify --suite {args.suite} "
                             f"(only by suites {', '.join([*readers, 'all'])})")
        if flag != "--tol" and value is not None and value < 0:
            raise UsageError(f"{flag} must not be negative, got {value}")
    tol = args.tol if args.tol is not None else 1e-8
    order_n = args.order_n if args.order_n is not None else 4
    qcut = args.order_k if args.order_k is not None else 4 * order_n
    values = {"--tol": tol, "--order-N": order_n, "--order-K": qcut}
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [{"suite": nm, **res.to_json()} for nm in names
              for res in SUITES[nm][0](*(values[flag] for flag in SUITES[nm][1]))]
    n_fail = sum(1 for c in checks if not c["passed"])
    return {
        "suite": args.suite,
        "tolerance": tol if "--tol" in reads else None,
        "order_N": order_n if "--order-N" in reads else None,
        "order_K": qcut if "--order-K" in reads else None,
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": n_fail,
        "passed": n_fail == 0,
    }


# ---------------------------------------------------------------------------
# sweep / region


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """NAME:START:RATIO:COUNT -> (NAME, START * RATIO^j for j < COUNT); with
    a fifth field `lin`, START + j * RATIO.  Each value is a modulus (|t| or
    |w2|), so each must be finite and positive."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise UsageError("--sweep expects NAME:START:RATIO:COUNT[:lin]")
    if parts[4:] not in ([], ["lin"]):
        raise UsageError(f"bad sweep schedule {text!r}: "
                         f"the fifth field may only be 'lin', got {parts[4]!r}")
    name = parts[0]
    try:
        start, ratio = float(parts[1]), float(parts[2])
        count = int(parts[3])
        vals = [start + ratio * j if len(parts) == 5 else start * ratio**j
                for j in range(count)]
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad sweep schedule {text!r}: {exc}") from exc
    if not vals:
        raise UsageError("sweep schedule is empty (count must be positive)")
    bad = [v for v in vals if not 0 < v < math.inf]
    if bad:
        raise UsageError(f"bad sweep schedule {text!r}: {name} = {bad[0]!r} "
                         "is not a finite positive modulus")
    return name, vals


def cmd_sweep(args) -> dict:
    params = _params_dict(args)
    what = f"sweep --target {args.target}"
    _check_names(params, SWEEP_PARAMS[args.target], what)
    name, values = _parse_sweep(args.sweep)
    varied = "w2" if args.target.startswith("asym-order") else "t"
    if name != varied:
        raise UsageError(f"{what} varies |{varied}|, not {name!r}")
    p0 = _point(params)
    if varied == "t":  # qrh-limit-B/D, growth-B/D
        ts, vals = rhsolver.along_ray(p0, rhsolver.SOLUTIONS[args.target[-1]], values)
        if args.target.startswith("qrh-limit"):
            rows = [{name: s, "value": val, "metric": abs(val - 1)}
                    for s, val in zip(values, vals)]
        else:
            rows = [{name: s, "value": val, "metric": abs(val)}
                    for s, val in zip(values, vals)]
            slope, dev = multisine.fit_loglog_slope(ts, vals)
            rows.append({name: None, "value": complex(slope, 0.0), "metric": dev})
    else:  # asym-order-F / asym-order-G
        mode = args.target[-1]
        pars = ((params.get("w1bar", 1 + 0.05j),) if mode == "F" else
                (params.get("w1", 1 + 0.1j), params.get("w1t", 0.95 - 0.07j)))
        w2dir = params.get("w2dir", cmath.exp(-0.2j))
        w2dir /= abs(w2dir)
        logs, rems = multisine.small_w2_remainders(
            mode, params.get("z", 0.3 + 0.4j), pars, _int_param(params, "K", 2),
            [w2dir * s for s in values])
        rows = [{name: s, "value": lv, "metric": abs(rem)}
                for s, lv, rem in zip(values, logs, rems)]
    return {
        "target": args.target,
        "sweep": args.sweep,
        "params": params,
        "rows": rows,
    }


def cmd_region(args) -> dict:
    params = _params_dict(args)
    _check_names(params, REGION_PARAMS, "region")
    p = _point(params)
    rep = rhsolver.region_neighborhood_tau(p.v, p.w, p.t, p.n)
    return {
        "params": {"v": p.v, "w": p.w, "t": p.t, "n": p.n},
        "grid": rep["grid"],
        "n_admissible": rep["n_admissible"],
        "n_total": rep["n_total"],
    }


# ---------------------------------------------------------------------------
# output & entry point


def _emit(record: dict, args) -> None:
    if record["command"] == "sweep" and args.format == "csv":
        lines = []
        rows = record["rows"]
        if rows:
            keys = list(rows[0].keys())
            lines.append(",".join(keys))
            for r in rows:
                cells = []
                for k in keys:
                    v = r[k]
                    if isinstance(v, complex):
                        sign = "+" if v.imag >= 0 else "-"
                        cells.append(f"{v.real!r}{sign}{abs(v.imag)!r}i")
                    elif v is None:
                        cells.append("")
                    else:
                        cells.append(repr(v))
                lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_strict(record), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strict(obj):
    """Strict-JSON form of a record: complex -> [re, im] (records keep their
    complex values until here), and a non-finite float (e.g. the residual
    of a failed exact check) -> null."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, complex):
        return [_strict(obj.real), _strict(obj.imag)]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


_PARAM = dict(action="append", default=[], metavar="NAME=VALUE",
              help="named complex parameter, e.g. v=0.3+0.4i")
_TOL = dict(type=_tolerance)

#: command -> (handler, help, the options it honours in help order);
#: every command also takes --out
COMMANDS = {
    "eval": (cmd_eval, "evaluate one function", {
        "--target": dict(required=True, choices=EVAL_TARGETS),
        "--param": _PARAM, "--tol": _TOL}),
    "verify": (cmd_verify, "run a named verification suite", {
        "--suite": dict(required=True, choices=(*SUITES, "all")),
        "--tol": _TOL,
        "--order-N": dict(type=int, dest="order_n"),
        "--order-K": dict(type=int, dest="order_k")}),
    "sweep": (cmd_sweep, "sweep one parameter", {
        "--target": dict(required=True, choices=SWEEP_PARAMS),
        "--sweep": dict(required=True, metavar="NAME:START:RATIO:COUNT",
                        help="geometric schedule; append :lin for a linear step"),
        "--param": _PARAM,
        "--format": dict(choices=("json", "csv"), default="json")}),
    "region": (cmd_region, "scan the admissible tau region", {"--param": _PARAM}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Give `parser` the options of command `name` and --out."""
    for flag, kwargs in COMMANDS[name][2].items():
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--out", help="output path (default stdout)")


def build_parser(name: str | None) -> argparse.ArgumentParser:
    """Parser for the arguments that follow command `name`, with `command`
    preset; with no name, the parser of the whole command line, which holds
    all four commands.  Subcommand help is `conifoldrh <name>` and
    `_Parser.error` raises the message alone, so help and usage errors read
    the same from either shape."""
    if name is not None:
        p = _Parser(prog=f"conifoldrh {name}")
        p.set_defaults(command=name)
        _add_options(p, name)
        return p
    p = _Parser(prog="conifoldrh", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(name).parse_args(argv[1:] if name else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        t0 = time.perf_counter()
        record = COMMANDS[args.command][0](args)
        _emit({"schema": 1, "command": args.command, **record,
               "timing": {"wall_s": time.perf_counter() - t0}}, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"usage error: missing parameter {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RegionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"usage error: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback
        traceback.print_exc()
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_CHECK if record.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
