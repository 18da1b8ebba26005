"""In-memory span tracer and the per-layer metrics derived from its spans.

`Tracer.install` wraps the public functions of each package layer at every
binding site callers look up: the defining module, every conifoldrh module
that from-imports the function, and class attributes (`__rmul__` is the same
function as `__mul__`).  Each call made while the tracer is enabled records a
span (name, start, end, parent span, item id); self time is a span's duration
minus the durations of its children.  Counts that spans cannot give are
recorded at the same boundaries: coefficient products in `LaurentPoly.__mul__`,
integrand evaluations (by wrapping the `f` passed to `integrate_segment` and
`choose_outer_cutoff`) and segments that return an estimate above
`SAFETY * tol` (budget hits).

lattice and checks get no spans: they are called inside qtorus and multisine
spans and cost less than a wrapper would, so their time lands in their
callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import time

import conifoldrh
from conifoldrh import contour
from conifoldrh.laurent import LaurentPoly

#: span name -> (module, attribute path) of each traced function
FUNCTIONS = {
    "laurent.mul": [("laurent", "LaurentPoly.__mul__")],
    "laurent.add": [("laurent", "LaurentPoly.__add__")],
    "qtorus.bps_automorphism": [("qtorus", "bps_automorphism")],
    "qtorus.dt_ray": [("qtorus", "dt_ray")],
    "qtorus.conjugation": [("qtorus", "conjugation_element")],
    "qtorus.closed_form": [("qtorus", "closed_form_element")],
    "qtorus.sector": [("qtorus", "sector_from_rays"), ("qtorus", "sector_closed_form")],
    "qtorus.ray_mul": [("qtorus", "RaySeries.mul")],
    "qtorus.ray_inverse": [("qtorus", "RaySeries.inverse")],
    "contour.detour": [("contour", "detour_integral")],
    "contour.segment": [("contour", "integrate_segment")],
    "contour.cutoff": [("contour", "choose_outer_cutoff")],
    "multisine.log_F_contour": [("multisine", "log_F_contour")],
    "multisine.log_G_contour": [("multisine", "log_G_contour")],
    "multisine.log_G_cached": [("multisine", "log_G_cached")],
    "multisine.moment": [("multisine", "f_moment"), ("multisine", "g_moment")],
    "multisine.moment_quad": [("multisine", "f_moment_quad"), ("multisine", "g_moment_quad")],
    "multisine.moment_series": [("multisine", "f_moment_series"),
                                ("multisine", "g_moment_series")],
    "multisine.product": [("multisine", "F_product"), ("multisine", "qdilog_numeric"),
                          ("multisine", "reflection_rhs_F"), ("multisine", "reflection_rhs_G")],
    "multisine.star": [("multisine", "log_F_star"), ("multisine", "log_G_star")],
    "bernoulli.multiple_bernoulli": [("bernoulli", "multiple_bernoulli")],
    "bernoulli.other": [("bernoulli", "bernoulli_poly"), ("bernoulli", "bernoulli_numbers"),
                        ("bernoulli", "zeta_int")],
    "rhsolver.B_n": [("rhsolver", "log_B_n")],
    "rhsolver.D_n": [("rhsolver", "log_D_n")],
    "rhsolver.other": [("rhsolver", f) for f in (
        "wallcross_B", "wallcross_D", "reflection_B", "reflection_D", "reflection_B_rhs",
        "reflection_D_rhs", "qrh2_limit", "check_qrh3_growth", "region_neighborhood_tau",
        "sin3", "refined_cs_partition", "cs_match_residual")],
    "cli.main": [("cli", "main")],
}

#: per-layer metric -> unit; the order is the order of BENCHMARK.json
METRICS = {
    "laurent.mul_calls": "count", "laurent.term_products": "count",
    "laurent.mul_self_s": "s", "laurent.add_self_s": "s",
    "qtorus.dt_ray_s": "s", "qtorus.conjugation_s": "s", "qtorus.closed_form_s": "s",
    "qtorus.sector_s": "s", "qtorus.ray_mul_calls": "count",
    "qtorus.ray_inverse_calls": "count", "qtorus.self_s": "s",
    "contour.integrand_evals": "count", "contour.segments": "count",
    "contour.budget_hits": "count", "contour.evals_per_segment": "evals/segment",
    "contour.detour_s": "s", "contour.cutoff_s": "s", "contour.eval_us": "us",
    "multisine.log_F_contour_s": "s", "multisine.log_G_contour_s": "s",
    "multisine.moment_quad_s": "s",
    "multisine.moment_requests": "count", "multisine.moment_computed": "count",
    "multisine.moment_reuse_frac": "frac", "multisine.logG_requests": "count",
    "multisine.logG_computed": "count", "multisine.logG_reuse_frac": "frac",
    "multisine.quad_fallbacks": "count", "multisine.moment_series_s": "s",
    "multisine.product_s": "s", "multisine.self_s": "s",
    "bernoulli.multiple_bernoulli_calls": "count", "bernoulli.self_s": "s",
    "rhsolver.B_n_s": "s", "rhsolver.D_n_s": "s", "rhsolver.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

#: counts must repeat exactly for a seed; the traced run compares them
COUNTS = tuple(m for m, u in METRICS.items() if u == "count")

_LAURENT = ("laurent.mul_calls", "laurent.term_products", "laurent.mul_self_s",
            "laurent.add_self_s")
_QTORUS = ("qtorus.dt_ray_s", "qtorus.conjugation_s", "qtorus.closed_form_s",
           "qtorus.sector_s", "qtorus.ray_mul_calls", "qtorus.ray_inverse_calls",
           "qtorus.self_s")
_CONTOUR = ("contour.integrand_evals", "contour.segments", "contour.evals_per_segment",
            "contour.detour_s", "contour.cutoff_s", "contour.eval_us")
_QUAD = ("multisine.log_F_contour_s", "multisine.log_G_contour_s", "multisine.self_s")

#: metrics that must not read zero on a workload that exercises them; a
#: renamed or inlined function then fails the traced run instead of silently
#: zeroing a layer.  Budget hits, fallbacks and reuse may legitimately drop to
#: zero and are not listed.
REQUIRED = {
    "algebra": _LAURENT + _QTORUS,
    "quadrature": _CONTOUR + _QUAD + ("multisine.moment_quad_s",),
    "cli-session": _LAURENT + _QTORUS + _CONTOUR + _QUAD + (
        "multisine.moment_requests", "multisine.moment_computed",
        "multisine.logG_requests", "multisine.logG_computed",
        "multisine.moment_series_s", "multisine.product_s",
        "bernoulli.multiple_bernoulli_calls", "bernoulli.self_s",
        "rhsolver.B_n_s", "rhsolver.D_n_s", "rhsolver.self_s",
        "cli.calls", "cli.self_s"),
}


def _nnz(p) -> int:
    items = p.items()
    try:
        return len(items)
    except TypeError:
        return sum(1 for _ in items)


class Tracer:
    """Spans of one pass, kept in memory; `snapshot` hands them out."""

    def __init__(self):
        self.enabled = False
        self.item = -1
        self._sites: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item_of: list[int] = []
        self.outermost: list[bool] = []
        self.counters = {"term_products": 0, "integrand_evals": 0, "budget_hits": 0}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name)
        depth = self._depth.get(name, 0)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_of.append(self.item)
        self.outermost.append(depth == 0)
        self.end.append(0.0)
        self._depth[name] = depth + 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return functools.update_wrapper(wrapper, fn)

    def _counting(self, f):
        counters = self.counters

        def counted(s):
            counters["integrand_evals"] += 1
            return f(s)
        return counted

    def _wrapper(self, name: str, fn):
        """Span wrapper, with the counts recorded at this boundary."""
        span = self._span(name, fn)
        tracer = self
        if name == "laurent.mul":
            def mul(a, b):
                if tracer.enabled:
                    other = _nnz(b) if isinstance(b, LaurentPoly) else 1
                    tracer.counters["term_products"] += _nnz(a) * other
                return span(a, b)
            return functools.update_wrapper(mul, fn)
        if name == "contour.segment":
            def segment(f, a, b, tol, *args, **kwargs):
                if not tracer.enabled:
                    return fn(f, a, b, tol, *args, **kwargs)
                out = span(tracer._counting(f), a, b, tol, *args, **kwargs)
                if out[1] > contour.SAFETY * tol:
                    tracer.counters["budget_hits"] += 1
                return out
            return functools.update_wrapper(segment, fn)
        if name == "contour.cutoff":
            def cutoff(f, *args, **kwargs):
                if not tracer.enabled:
                    return fn(f, *args, **kwargs)
                return span(tracer._counting(f), *args, **kwargs)
            return functools.update_wrapper(cutoff, fn)
        return span

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at all of its binding sites."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        for name, targets in FUNCTIONS.items():
            for module, path in targets:
                owner = importlib.import_module(f"conifoldrh.{module}")
                for part in path.split("."):
                    owner = getattr(owner, part)   # AttributeError: renamed
                original = owner
                wrapper = self._wrapper(name, original)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            self._sites.append((ns, key, original))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._sites):
            setattr(ns, key, original)
        self._sites = []

    def snapshot(self) -> dict:
        """The pass's spans (columns) and counters."""
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item_of,
                "outermost": self.outermost, "counters": dict(self.counters)}


def _namespaces() -> list:
    """Every conifoldrh module and every class defined in one."""
    mods = [conifoldrh]
    for info in pkgutil.iter_modules(conifoldrh.__path__):
        mods.append(importlib.import_module(f"conifoldrh.{info.name}"))
    out = list(mods)
    for m in mods:
        for val in vars(m).values():
            if isinstance(val, type) and val.__module__.startswith("conifoldrh") \
                    and val not in out:
                out.append(val)
    return out


# ---------------------------------------------------------------------------
# metrics


def pass_metrics(snap: dict) -> dict:
    """Per-layer metrics of one traced pass (everything but the overhead)."""
    names, parent = snap["name"], snap["parent"]
    dur = [e - s for s, e in zip(snap["start"], snap["end"])]
    child = [0.0] * len(dur)
    children: dict[int, set] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
            children.setdefault(p, set()).add(names[i])
    count: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    computed = {"multisine.moment": 0, "multisine.log_G_cached": 0}
    fallbacks = 0
    for i, nm in enumerate(names):
        count[nm] = count.get(nm, 0) + 1
        if snap["outermost"][i]:
            incl[nm] = incl.get(nm, 0.0) + dur[i]
        own = dur[i] - child[i]
        self_by_name[nm] = self_by_name.get(nm, 0.0) + own
        layer = nm.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        kids = children.get(i, ())
        if nm in computed and kids:
            computed[nm] += 1    # a cache hit makes no child call
        if nm == "multisine.moment" and {"multisine.moment_series",
                                         "multisine.moment_quad"} <= set(kids):
            fallbacks += 1       # series tried, then quadrature
    c = snap["counters"]
    evals, segments = c["integrand_evals"], count.get("contour.segment", 0)
    mreq, greq = count.get("multisine.moment", 0), count.get("multisine.log_G_cached", 0)
    quad_time = incl.get("contour.segment", 0.0) + incl.get("contour.cutoff", 0.0)
    return {
        "laurent.mul_calls": count.get("laurent.mul", 0),
        "laurent.term_products": c["term_products"],
        "laurent.mul_self_s": self_by_name.get("laurent.mul", 0.0),
        "laurent.add_self_s": self_by_name.get("laurent.add", 0.0),
        "qtorus.dt_ray_s": incl.get("qtorus.dt_ray", 0.0),
        "qtorus.conjugation_s": incl.get("qtorus.conjugation", 0.0),
        "qtorus.closed_form_s": incl.get("qtorus.closed_form", 0.0),
        "qtorus.sector_s": incl.get("qtorus.sector", 0.0),
        "qtorus.ray_mul_calls": count.get("qtorus.ray_mul", 0),
        "qtorus.ray_inverse_calls": count.get("qtorus.ray_inverse", 0),
        "qtorus.self_s": self_by_layer.get("qtorus", 0.0),
        "contour.integrand_evals": evals,
        "contour.segments": segments,
        "contour.budget_hits": c["budget_hits"],
        "contour.evals_per_segment": evals / segments if segments else 0.0,
        "contour.detour_s": incl.get("contour.detour", 0.0),
        "contour.cutoff_s": incl.get("contour.cutoff", 0.0),
        "contour.eval_us": 1e6 * quad_time / evals if evals else 0.0,
        "multisine.log_F_contour_s": incl.get("multisine.log_F_contour", 0.0),
        "multisine.log_G_contour_s": incl.get("multisine.log_G_contour", 0.0),
        "multisine.moment_quad_s": incl.get("multisine.moment_quad", 0.0),
        "multisine.moment_requests": mreq,
        "multisine.moment_computed": computed["multisine.moment"],
        "multisine.moment_reuse_frac": 1 - computed["multisine.moment"] / mreq if mreq else 0.0,
        "multisine.logG_requests": greq,
        "multisine.logG_computed": computed["multisine.log_G_cached"],
        "multisine.logG_reuse_frac":
            1 - computed["multisine.log_G_cached"] / greq if greq else 0.0,
        "multisine.quad_fallbacks": fallbacks,
        "multisine.moment_series_s": incl.get("multisine.moment_series", 0.0),
        "multisine.product_s": incl.get("multisine.product", 0.0),
        "multisine.self_s": self_by_layer.get("multisine", 0.0),
        "bernoulli.multiple_bernoulli_calls": count.get("bernoulli.multiple_bernoulli", 0),
        "bernoulli.self_s": self_by_layer.get("bernoulli", 0.0),
        "rhsolver.B_n_s": incl.get("rhsolver.B_n", 0.0),
        "rhsolver.D_n_s": incl.get("rhsolver.D_n", 0.0),
        "rhsolver.self_s": self_by_layer.get("rhsolver", 0.0),
        "cli.calls": count.get("cli.main", 0),
        "cli.self_s": self_by_layer.get("cli", 0.0),
    }


def combine(per_pass: list[dict], untraced_wall: list[float],
            traced_wall: list[float]) -> dict:
    """Counts from the passes (which must agree), times as medians."""
    first = per_pass[0]
    for other in per_pass[1:]:
        drift = [m for m in COUNTS if m in first and other[m] != first[m]]
        if drift:
            raise RuntimeError(f"counts differ between traced passes: {drift}")
    out = {m: (first[m] if m in COUNTS else statistics.median(p[m] for p in per_pass))
           for m in first}
    out["trace.overhead_frac"] = (statistics.median(traced_wall)
                                  / statistics.median(untraced_wall) - 1)
    return out


def missing(workload: str, metrics: dict) -> list[str]:
    """Required metrics that read zero on this workload."""
    return [m for m in REQUIRED[workload] if not metrics.get(m)]
