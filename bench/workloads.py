"""Seeded workloads of the conifoldrh benchmark.

A workload is a fixed list of items made from a seed.  An item is plain data:
a kind, its arguments and a group label.  `prepare` turns an item into a
zero-argument call into the package (the timed span), and `check` verifies
that call's output by an independent route (run outside the timed span).

Points are drawn only where the package's own predicates admit them
(`F_star_predicates`, `G_star_predicates`, `b_predicates`, `d_predicates`,
`in_mplus`, the conditions of `cli._difference_points`, and `hull_rotation`
for every contour the call or its check integrates), so no item is rejected
for its inputs.  Drawn values are rounded to six decimals before they are
tested, because that is how the CLI receives them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field

from conifoldrh import cli, lattice, multisine, qtorus, rhsolver
from conifoldrh.contour import ContourSpec, RotationError, hull_rotation
from conifoldrh.lattice import ChargeVector

WORKLOADS = ("algebra", "quadrature", "cli-session")

WHY = {
    "algebra": (
        "bps_automorphism and sector_from_rays on long dense q^(1/2) "
        "polynomials: all time in laurent/qtorus, none in the numerical layer"),
    "quadrature": (
        "direct cache-free contour integrals: typical few-panel items plus a "
        "fixed number beyond the panel-budget cliff"),
    "cli-session": (
        "in-process CLI calls (eval, sweep, region, verify): short polynomials, "
        "cache reuse within a call and real argparse/JSON overhead"),
}

#: how multisine.clear_caches() is applied on each workload
CACHE_RULE = {
    "algebra": "cleared before each pass (the exact layer has no caches)",
    "quadrature": "cleared before each pass (the calls bypass the caches)",
    "cli-session": "cleared before each call (every real CLI call is a fresh process)",
}

#: relative tolerance of every numerical identity check (the acceptance grid)
IDENTITY_TOL = 1e-8
#: the two quadrature tolerances the package itself uses
QUAD_TOLS = (3e-11, 1e-8)
#: the items beyond the panel-budget cliff: (tol, z, w1, w1t, arg w2) and the
#: |w2| band the seed draws from.  Across each band the call exhausts the
#: budget on exactly two segments (the origin arc and the innermost half-line
#: panel) and still returns; from |w2| ~ 290 at 3e-11 some points exhaust it
#: on a third segment, which costs 1.5x more.  The other parameters stay fixed because they
#: decide whether one or two segments exhaust it, which doubles the cost.
CLIFF_ITEMS = (
    ((3e-11, 0.258669 + 0.542438j, 1.059641 + 0.174751j, 0.915892 - 0.121915j, -0.870377),
     (240.0, 285.0)),
    ((1e-8, 0.336278 + 0.481368j, 1.199328 + 0.062274j, 1.005438 - 0.190325j, -1.12475),
     (1700.0, 2100.0)),
)
#: arg(w2) range of cli._difference_points
W2_ARG = (-1.35, -0.7)
#: |w2| ranges of the typical items, below the cliff
TYPICAL_W2 = {("logG", 3e-11): (0.05, 128.0), ("logG", 1e-8): (0.05, 512.0),
              ("logF", 3e-11): (0.05, 1024.0), ("logF", 1e-8): (0.05, 1024.0)}

#: algebra: number of bps items per order N and the qcut range each draws from
ALGEBRA_PLAN = {4: (14, 48, 64), 3: (14, 48, 112), 2: (10, 48, 400)}
#: calls per pass of the items that take a few milliseconds, so that their
#: median latency rests on more samples than the passes alone give
SHORT_REPEAT = 3
RAY_KINDS = ("ell_n", "ell_inf", "-ell_n")
#: (ray index, magnetic part of gamma) with |<gamma0, gamma>| = 1 on each ray
#: kind (None: kmax = N); the pairing sets the working q cutoff and the
#: closed-form factor count, so fixing it keeps an item's cost seed-independent
UNIT_PAIRING = {
    "ell_n": ((0, (1, 0)), (1, (1, 0)), (2, (1, 0)), (1, (0, 1)), (0, (1, -1)),
              (2, (1, -1))),
    "-ell_n": ((1, (1, 0)), (2, (1, 0)), (1, (0, 1)), (2, (1, -1))),
    "ell_inf": ((None, (0, 1)), (None, (1, -1))),
}
#: sector items: bidegree and acted-on charge (delta_v at bidegree 4 costs 2x)
SECTORS = ((3, (0, 0, 0, 1)), (4, (0, 0, 1, 0)))


@dataclass
class Item:
    id: int
    kind: str
    group: str
    args: dict = field(default_factory=dict)
    repeat: int = 1     # calls per pass

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind, "group": self.group,
                "repeat": self.repeat, "args": {k: _plain(v) for k, v in self.args.items()}}


def _plain(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def _r6(z: complex) -> complex:
    return complex(round(z.real, 6), round(z.imag, 6))


def _cplx(rng: random.Random, re: tuple, im: tuple) -> complex:
    return _r6(complex(rng.uniform(*re), rng.uniform(*im)))


def _log_stratified(rng: random.Random, lo: float, hi: float, j: int, n: int,
                    spread: float = 1.0) -> float:
    """Stratum j of n of a log-uniform draw on [lo, hi], drawn from the middle
    `spread` of the stratum."""
    return lo * (hi / lo) ** ((j + 0.5 + spread * (rng.random() - 0.5)) / n)


def _admits_rotation(directions) -> bool:
    try:
        hull_rotation(list(directions))
    except RotationError:
        return False
    return True


def _g_dirs(z, w1, w1t, w2):
    """Directions log_G_contour needs in one half-plane."""
    ob = (w1 + w1t) / 2
    return (w1, w1t, w2, z + ob, ob + w2 - z)


def _f_dirs(z, w1bar, w2):
    """Directions log_F_contour needs in one half-plane."""
    return (w1bar, w2, z, w1bar + w2 - z)


def _difference_point(rng: random.Random, w2_mag: float | None = None,
                      w2_arg: float | None = None):
    """(z, w1, w1t, w2) under the conditions of cli._difference_points; |w2|
    and arg(w2) are drawn there from [0.6, 1.2] and W2_ARG unless given."""
    while True:
        w1 = _r6(1 + complex(rng.uniform(0.02, 0.2), rng.uniform(0.05, 0.25)))
        w1t = _r6(1 + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.22, -0.04)))
        mag = w2_mag if w2_mag is not None else rng.uniform(0.6, 1.2)
        arg = w2_arg if w2_arg is not None else rng.uniform(*W2_ARG)
        w2 = _r6(cmath.exp(1j * arg) * mag)
        z = _r6(0.25 + complex(rng.uniform(-0.05, 0.1), rng.uniform(0.35, 0.6)))
        dw = (w1 - w1t) / 2
        conds = [(z / w1).imag > 0, (z / w1t).imag > 0, (dw / w1).imag > 0,
                 (dw / w1t).imag > 0, (w1 / w2).imag > 0, (w1t / w2).imag > 0]
        if all(conds):
            return z, w1, w1t, w2


def _f_star_ok(pt) -> bool:
    z, w1, w1t, _ = pt
    return all(q.ok for q in multisine.F_star_predicates(z, (w1 + w1t) / 2))


def _g_star_ok(pt) -> bool:
    z, w1, w1t, _ = pt
    return all(q.ok for q in multisine.G_star_predicates(z, w1, w1t))


def _draw(rng: random.Random, make, admit, what: str, attempts: int = 2000):
    for _ in range(attempts):
        pt = make()
        if admit(pt):
            return pt
    raise RuntimeError(f"no admissible {what} in {attempts} draws")


# ---------------------------------------------------------------------------
# algebra


def _structure_point(rng: random.Random) -> tuple[complex, complex]:
    return _draw(rng, lambda: (_cplx(rng, (0.2, 0.4), (0.3, 0.5)),
                               _cplx(rng, (0.9, 1.1), (-0.05, 0.05))),
                 lambda p: lattice.in_mplus(*p), "stability point")


def algebra_items(rng: random.Random) -> list[Item]:
    v, w = _structure_point(rng)
    items = []
    for order, (count, lo, hi) in ALGEBRA_PLAN.items():
        for j in range(count):
            kind = RAY_KINDS[j % 3]   # fixed per stratum: ell_inf costs most
            index, mag = rng.choice(UNIT_PAIRING[kind])
            index = order if index is None else index
            items.append(Item(len(items), "bps", f"N={order}", {
                "v": v, "w": w, "ray": kind, "index": index,
                "gamma": (0, 0) + mag, "order": order,
                "qcut": round(_log_stratified(rng, lo, hi, j, count, spread=0.2))}))
    for bidegree, gamma in SECTORS:
        items.append(Item(len(items), "sector", f"bidegree={bidegree}", {
            "v": v, "w": w, "gamma": gamma, "bidegree": bidegree,
            "qcut": rng.randrange(20, 29)}))
    return items


def _ray(args: dict):
    if args["ray"] == "ell_inf":
        return qtorus.conifold_ray_charges("ell_inf", kmax=args["index"])
    return qtorus.conifold_ray_charges(args["ray"], args["index"])


# ---------------------------------------------------------------------------
# quadrature


def _contour_item(rng, kind: str, tol: float, mag: float, arg: float, group: str,
                  idx: int) -> Item:
    """log F or log G at w2 = mag * exp(i arg), admissible for the call and its
    check."""
    def admit(pt):
        z, w1, w1t, w2 = pt
        if kind == "logG":
            return (_admits_rotation(_g_dirs(z, w1, w1t, w2))
                    and _admits_rotation(_g_dirs(z + w1, w1, w1t, w2)))
        ob = (w1 + w1t) / 2
        return (_admits_rotation(_f_dirs(z, ob, w2))
                and _admits_rotation(_f_dirs(z + w2, ob, w2)))

    z, w1, w1t, w2 = _draw(rng, lambda: _difference_point(rng, mag, arg), admit, kind)
    if kind == "logG":
        args = {"z": z, "w1": w1, "w1t": w1t, "w2": w2, "tol": tol}
    else:
        args = {"z": z, "w1bar": _r6((w1 + w1t) / 2), "w2": w2, "tol": tol}
    return Item(idx, kind, group, args, SHORT_REPEAT)


def _moment_item(rng, kind: str, order: int, tol: float, idx: int) -> Item:
    admit = _f_star_ok if kind == "fmom" else _g_star_ok
    z, w1, w1t, _ = _draw(rng, lambda: _difference_point(rng), admit, kind)
    if kind == "fmom":
        args = {"order": order, "z": z, "w1bar": _r6((w1 + w1t) / 2), "tol": tol}
    else:
        args = {"order": order, "z": z, "w1": w1, "w1t": w1t, "tol": tol}
    return Item(idx, kind, "typical", args, SHORT_REPEAT)


#: typical contour items per (kind, tol)
QUAD_TYPICAL = {("logG", 3e-11): 45, ("logG", 1e-8): 30,
                ("logF", 3e-11): 38, ("logF", 1e-8): 24}
QUAD_MOMENTS = {"fmom": 24, "gmom": 24}


def quadrature_items(rng: random.Random) -> list[Item]:
    items: list[Item] = []
    for (kind, tol), count in QUAD_TYPICAL.items():
        lo, hi = TYPICAL_W2[(kind, tol)]
        # arg(w2) moves an item's cost about as much as |w2| does: pairing the
        # two sets of strata at random (a Latin hypercube) keeps the cost
        # profile, and so the tail percentile, alike from seed to seed
        arg_strata = list(range(count))
        rng.shuffle(arg_strata)
        for j in range(count):
            mag = _log_stratified(rng, lo, hi, j, count)
            arg = W2_ARG[0] + (W2_ARG[1] - W2_ARG[0]) * (arg_strata[j] + rng.random()) / count
            items.append(_contour_item(rng, kind, tol, mag, arg, "typical", len(items)))
    for kind, count in QUAD_MOMENTS.items():
        for j in range(count):
            items.append(_moment_item(rng, kind, (-2, -1, 0, 1)[j % 4],
                                      QUAD_TOLS[j % 2], len(items)))
    for (tol, z, w1, w1t, arg), (lo, hi) in CLIFF_ITEMS:
        w2 = _r6(cmath.exp(1j * arg) * rng.uniform(lo, hi))
        items.append(Item(len(items), "logG", "cliff",
                          {"z": z, "w1": w1, "w1t": w1t, "w2": w2, "tol": tol}))
    return items


# ---------------------------------------------------------------------------
# cli-session


def _c(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _params(**kw) -> list[str]:
    out = []
    for k, v in kw.items():
        out += ["--param", f"{k}={_c(complex(v))}"]
    return out


def _eval_argv(rng: random.Random, target: str) -> list[str]:
    base = ["eval", "--target", target]
    if target == "qdilog":
        x = _r6(rng.uniform(0.05, 1.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        q = _r6(rng.uniform(0.1, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        return base + _params(x=x, q=q)
    if target in ("F", "Fstar"):
        z, w1, w1t, w2 = _draw(rng, lambda: _difference_point(rng), _f_star_ok, target)
        return base + _params(z=z, w1bar=_r6((w1 + w1t) / 2), w2=w2)
    if target in ("G", "Gstar"):
        def admit(p):
            z, w1, w1t, w2 = p
            dw = (w1 - w1t) / 2
            return (_g_star_ok(p) and _admits_rotation(_g_dirs(z, w1, w1t, w2))
                    and _admits_rotation(_g_dirs(dw, w1, w1t, w2)))
        z, w1, w1t, w2 = _draw(rng, lambda: _difference_point(rng), admit, target)
        return base + _params(z=z, w1=w1, w1t=w1t, w2=w2)
    if target == "Bn":
        def make():
            v, w = _structure_point(rng)
            t = _r6(rng.uniform(0.4, 1.0) * cmath.exp(1j * rng.uniform(0.9, 2.0)))
            return rhsolver.SolutionPoint(v, w, t, 0.15j, rng.randrange(0, 3))
        p = _draw(rng, make, lambda p: all(q.ok for q in rhsolver.b_predicates(p)), "Bn point")
        return base + _params(v=p.v, w=p.w, t=p.t, n=p.n)
    if target == "Dn":
        def make():
            v = _cplx(rng, (0.25, 0.35), (0.35, 0.45))
            t = _cplx(rng, (0.15, 0.25), (0.65, 0.75))
            # arg(tau) stays clear of the tau-neighbourhood edge near 1.85, where
            # the moment series slows and one call costs 3x more within 0.1 rad
            tau = _r6(rng.uniform(0.12, 0.18) * cmath.exp(1j * rng.uniform(2.4, 2.9)))
            return rhsolver.SolutionPoint(v, 1 + 0j, t, tau, rng.randrange(0, 2))

        def admit(p):
            if not (lattice.in_mplus(p.v, p.w)
                    and all(q.ok for q in rhsolver.d_predicates(p))):
                return False
            tt2 = p.t * p.tau / 2
            w1, w1t = p.w - tt2, p.w + tt2
            z0 = p.v + p.n * p.w - p.n * tt2
            return (_admits_rotation(_g_dirs(z0, w1, w1t, -p.t))
                    and _admits_rotation(_g_dirs((w1 - w1t) / 2, w1, w1t, -p.t)))
        p = _draw(rng, make, admit, "Dn point")
        return base + _params(v=p.v, w=p.w, t=p.t, tau=p.tau, n=p.n)
    if target == "Z_cs":
        def make():
            return (_cplx(rng, (1.1, 1.3), (0.3, 0.5)), _cplx(rng, (0.75, 0.85), (0.25, 0.35)),
                    complex(round(rng.uniform(0.8, 1.25), 6)))

        def admit(p):
            delta, mu, beta = p
            sb = cmath.sqrt(beta)
            a, b = 1 / sb, sb
            return all(_admits_rotation(_g_dirs(zz - (a + b) / 2, a, b, delta))
                       for zz in ((sb + 1 / sb) / 2 + delta * mu, sb))
        delta, mu, beta = _draw(rng, make, admit, "Z_cs point")
        return base + _params(delta=delta, mu=mu, beta=beta)
    if target == "bernoulli":
        return base + _params(n=rng.randrange(0, 9), z=_cplx(rng, (-1, 1), (-1, 1)))
    if target == "multiple_bernoulli":
        r = rng.randrange(1, 4)
        ws = {f"w{i}": _cplx(rng, (0.6, 1.4), (-0.4, 0.4)) for i in range(1, r + 1)}
        return base + _params(n=rng.randrange(0, r + 2), r=r,
                              z=_cplx(rng, (-1, 1), (-1, 1)), **ws)
    if target == "moments":
        order = rng.randrange(-2, 2)
        if rng.random() < 0.5:
            z, w1, w1t, _ = _draw(rng, lambda: _difference_point(rng), _f_star_ok, target)
            return base + _params(order=order, z=z, w1bar=_r6((w1 + w1t) / 2))
        z, w1, w1t, _ = _draw(rng, lambda: _difference_point(rng), _g_star_ok, target)
        return base + _params(order=order, z=z, w1=w1, w1t=w1t)
    raise ValueError(f"no generator for eval target {target!r}")


#: the README sweep: schedule and point; the other sweep targets reuse the point
SWEEP_POINT = {"t": -0.755 + 0.655j, "tau": 0.054 + 0.140j}
SWEEPS = (("qrh-limit-B", "t:0.8:0.5:8"), ("qrh-limit-D", "t:0.8:0.5:8"),
          ("growth-B", "t:4:2:7"), ("growth-D", "t:4:2:7"),
          ("asym-order-F", "w2:0.4:0.5:7"), ("asym-order-G", "w2:0.4:0.5:7"))
EVAL_POINTS = 12
REGION_CALLS = 3


def cli_items(rng: random.Random) -> list[Item]:
    argvs = []
    for target in cli.EVAL_TARGETS:
        for _ in range(EVAL_POINTS):
            argvs.append(("eval", _eval_argv(rng, target)))
    for target, schedule in SWEEPS:
        params = _params(**SWEEP_POINT) if target[:3] in ("qrh", "gro") else []
        argvs.append(("sweep", ["sweep", "--target", target, "--sweep", schedule] + params))
    for _ in range(REGION_CALLS):
        v, w = _structure_point(rng)
        t = _r6(rng.uniform(0.4, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        argvs.append(("region", ["region"] + _params(v=v, w=w, t=t, n=rng.randrange(0, 3))))
    for suite in cli.SUITES:
        if suite != "all":
            argvs.append(("verify", ["verify", "--suite", suite]))
    rng.shuffle(argvs)
    return [Item(i, "cli", group, {"argv": argv},
                 SHORT_REPEAT if group in ("eval", "region") else 1)
            for i, (group, argv) in enumerate(argvs)]


_BUILDERS = {"algebra": algebra_items, "quadrature": quadrature_items,
             "cli-session": cli_items}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's item list for a seed (same seed, same list)."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def properties(workload: str, items: list[Item]) -> dict:
    """Input properties the record reports for a workload."""
    out: dict = {"items": len(items), "why": WHY[workload],
                 "cache_rule": CACHE_RULE[workload]}
    if workload == "algebra":
        bps = [it.args for it in items if it.kind == "bps"]
        out["qcut_range"] = [min(a["qcut"] for a in bps), max(a["qcut"] for a in bps)]
        out["orders"] = sorted({a["order"] for a in bps})
        out["rays"] = {k: sum(a["ray"] == k for a in bps) for k in RAY_KINDS}
        out["sector_bidegrees"] = [it.args["bidegree"] for it in items if it.kind == "sector"]
    elif workload == "quadrature":
        contour_items = [it for it in items if it.kind in ("logG", "logF")]
        mags = [abs(it.args["w2"]) for it in contour_items]
        out["w2_abs_range"] = [min(mags), max(mags)]
        out["call_mix"] = _count(it.kind for it in items)
        out["tol_mix"] = _count(repr(it.args["tol"]) for it in items)
        out["cliff_items"] = sum(it.group == "cliff" for it in items)
        out["cliff_share"] = out["cliff_items"] / len(items)
        out["cliff_bands"] = {repr(c[0]): list(band) for c, band in CLIFF_ITEMS}
    else:
        out["call_mix"] = _count(it.group for it in items)
        out["eval_targets"] = _count(it.args["argv"][2] for it in items if it.group == "eval")
    return out


def _count(keys) -> dict:
    out: dict = {}
    for k in keys:
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# calls and checks


def prepare(item: Item):
    """Zero-argument call that performs the item (the timed span)."""
    a = item.args
    if item.kind == "bps":
        structure = lattice.conifold_bps(a["v"], a["w"])
        ray, gamma = _ray(a), ChargeVector(*a["gamma"])
        return lambda: qtorus.bps_automorphism(structure, ray, gamma, a["order"], a["qcut"])
    if item.kind == "sector":
        structure = lattice.conifold_bps(a["v"], a["w"])
        gamma, d = ChargeVector(*a["gamma"]), a["bidegree"]
        return lambda: qtorus.sector_from_rays(structure, gamma, d, d, a["qcut"])
    if item.kind == "logG":
        return lambda: multisine.log_G_contour(a["z"], a["w1"], a["w1t"], a["w2"],
                                               ContourSpec(tol=a["tol"]))
    if item.kind == "logF":
        return lambda: multisine.log_F_contour(a["z"], a["w1bar"], a["w2"],
                                               ContourSpec(tol=a["tol"]))
    if item.kind == "fmom":
        return lambda: multisine.f_moment_quad(a["order"], a["z"], a["w1bar"],
                                               ContourSpec(tol=a["tol"]))
    if item.kind == "gmom":
        return lambda: multisine.g_moment_quad(a["order"], a["z"], a["w1"], a["w1t"],
                                               ContourSpec(tol=a["tol"]))
    if item.kind == "cli":
        return lambda: run_cli(a["argv"])
    raise ValueError(f"unknown item kind {item.kind!r}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _rel(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)


def check(item: Item, out) -> tuple[bool, str]:
    """Verify an item's output by an independent route; (ok, detail)."""
    a = item.args
    if item.kind == "bps":
        ok = bool(out.element.terms) and out.element == out.closed_form
        return ok, "conjugation == closed form" if ok else "conjugation != closed form"
    if item.kind == "sector":
        d = a["bidegree"]
        ok = out == qtorus.sector_closed_form(ChargeVector(*a["gamma"]), d, d, a["qcut"])
        return ok, "ray composition == closed form" if ok else "sector mismatch"
    if item.kind in ("logG", "logF"):
        spec = ContourSpec(tol=a["tol"])
        value = out[0]
        if item.kind == "logG":
            z, w1, w1t, w2 = a["z"], a["w1"], a["w1t"], a["w2"]
            shifted = multisine.log_G_contour(z + w1, w1, w1t, w2, spec)[0]
            rhs = 1 / multisine.F_value(z + (w1 + w1t) / 2, w1t, w2)
        else:
            z, w1bar, w2 = a["z"], a["w1bar"], a["w2"]
            shifted = multisine.log_F_contour(z + w2, w1bar, w2, spec)[0]
            rhs = 1 / (1 - cmath.exp(2j * math.pi * z / w1bar))
        rel = _rel(cmath.exp(shifted - value), rhs)
        return rel < IDENTITY_TOL, f"shift identity rel {rel:.3e}"
    if item.kind == "fmom":
        ref = multisine.f_moment_series(a["order"], a["z"], a["w1bar"])
        rel = _rel(out[0], ref)
        return rel < IDENTITY_TOL, f"residue series rel {rel:.3e}"
    if item.kind == "gmom":
        ref = multisine.g_moment_series(a["order"], a["z"], a["w1"], a["w1t"])
        rel = _rel(out[0], ref)
        return rel < IDENTITY_TOL, f"residue series rel {rel:.3e}"
    if item.kind == "cli":
        code, stdout, stderr = out
        if code != 0:
            return False, f"exit {code}: {stderr.strip()[:200]}"
        if a["argv"][0] == "verify" and not json.loads(stdout)["passed"]:
            return False, "verify reported passed=false"
        return True, "exit 0"
    raise ValueError(f"unknown item kind {item.kind!r}")

