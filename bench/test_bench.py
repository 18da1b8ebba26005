"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from conifoldrh import multisine, qtorus, rhsolver  # noqa: E402


def _json(items):
    return [it.to_json() for it in items]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = _json(workloads.build(workload, 11))
    assert _json(workloads.build(workload, 11)) == first
    assert _json(workloads.build(workload, 12)) != first


def test_quadrature_keeps_its_cliff_items():
    for seed in range(1, 6):
        items = workloads.build("quadrature", seed)
        cliff = [it for it in items if it.group == "cliff"]
        assert len(cliff) == len(workloads.CLIFF_ITEMS)
        for it, ((tol, z, w1, w1t, _), (lo, hi)) in zip(cliff, workloads.CLIFF_ITEMS):
            assert it.args["tol"] == tol
            assert workloads._admits_rotation(workloads._g_dirs(z, w1, w1t, it.args["w2"]))
            assert workloads._admits_rotation(workloads._g_dirs(z + w1, w1, w1t, it.args["w2"]))
            assert lo * (1 - 1e-6) <= abs(it.args["w2"]) <= hi * (1 + 1e-6)


@pytest.mark.parametrize("n, p", [(10, 50), (19, 50), (20, 50), (39, 50), (40, 75),
                                  (99, 75), (100, 90), (106, 90), (199, 90),
                                  (200, 95), (999, 95), (1000, 99), (9999, 99),
                                  (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(n, p):
    assert harness.tail_percentile(n) == p
    values = list(range(n))
    beyond = sum(v > harness.percentile(values, p) for v in values)
    assert beyond >= 10 or p == 50


def test_calibration_uses_the_samples_during_and_around_an_interval():
    timeline = calibrate.Timeline()
    timeline.at = [0.0, 1.0, 2.0, 3.0, 4.0]
    n = calibrate.NOMINAL_S
    timeline.seconds = [n, 2 * n, 2 * n, 4 * n, 8 * n]
    # samples at 1, 2 (inside) and 3 (after) count; 0 and 4 do not
    assert timeline.scale(1.5, 2.5) == pytest.approx(1.0 * 3 / 8)
    assert timeline.scale(1.0, 3.0) == pytest.approx(2.0 * 3 / 8)
    # a machine twice as slow as the nominal one halves every time
    timeline.seconds = [2 * n] * 5
    assert timeline.scale(0.25, 3.75) == pytest.approx(3.5 / 2)


def test_timeline_samples_inside_a_call_and_takes_that_time_out():
    with calibrate.Timeline() as timeline:
        t0, p0 = timeline.clock(), time.perf_counter()
        while time.perf_counter() - p0 < 4 * calibrate.INTERVAL_S:
            pass
        t1, p1 = timeline.clock(), time.perf_counter()
    inside = [a for a in timeline.at if t0 < a < t1]
    assert len(inside) >= 2
    sampled = (p1 - p0) - (t1 - t0)     # sampling time taken out of the call
    assert 0 < sampled <= timeline.paused
    assert timeline.scale(t0, t1) > 0


def _perturb_element(elem, rel):
    g, c = next(iter(elem.terms.items()))
    moved = dict(c.items())
    n = next(iter(moved))
    moved[n] = moved[n] * (1 + Fraction(rel))
    return qtorus.QTorusElement({**elem.terms, g: type(c)(moved)})


def _perturb(item, out, rel=1e-6):
    if item.kind == "bps":
        return dataclasses.replace(out, element=_perturb_element(out.element, rel))
    if item.kind == "sector":
        return _perturb_element(out, rel)
    return (out[0] * (1 + rel), out[1])


def _cheapest(items, kind):
    key = "qcut" if kind in ("bps", "sector") else None
    pool = [it for it in items if it.kind == kind and it.group != "cliff"]
    return min(pool, key=lambda it: it.args[key]) if key else pool[0]


@pytest.mark.parametrize("workload, kind", [
    ("algebra", "bps"), ("algebra", "sector"), ("quadrature", "logG"),
    ("quadrature", "logF"), ("quadrature", "fmom"), ("quadrature", "gmom")])
def test_each_check_flags_a_value_perturbed_by_1e6(workload, kind):
    items = workloads.build(workload, 3)
    if kind == "sector":
        item = min((it for it in items if it.kind == kind),
                   key=lambda it: it.args["bidegree"])
    else:
        item = _cheapest(items, kind)
    out = workloads.prepare(item)()
    assert workloads.check(item, out)[0]
    ok, detail = workloads.check(item, _perturb(item, out))
    assert not ok, detail


def test_cli_check_flags_exit_codes_and_failed_suites():
    item = workloads.Item(0, "cli", "verify", {"argv": ["verify", "--suite", "bernoulli"]})
    assert workloads.check(item, (0, json.dumps({"passed": True}), ""))[0]
    assert not workloads.check(item, (0, json.dumps({"passed": False}), ""))[0]
    assert not workloads.check(item, (1, "", ""))[0]
    item = workloads.Item(0, "cli", "eval", {"argv": ["eval", "--target", "Dn"]})
    assert not workloads.check(item, (2, "", "precondition violated"))[0]


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = multisine.log_F_star
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rhsolver.log_F_star is multisine.log_F_star is not original
        assert qtorus.LaurentPoly.__rmul__ is qtorus.LaurentPoly.__mul__
    finally:
        tracer.uninstall()
    assert rhsolver.log_F_star is multisine.log_F_star is original


def _counts(record):
    return {m: record["per_layer"][m] for m in spans.COUNTS}


@pytest.mark.parametrize("workload, pick", [
    ("quadrature", lambda items: [it for it in items if it.group == "typical"][::12]),
    ("cli-session", lambda items: [it for it in items if it.group == "eval"][:12]
     + [workloads.Item(99, "cli", "verify", {"argv": ["verify", "--suite", "difference"]})]),
])
def test_two_traced_runs_of_one_seed_give_identical_counts(workload, pick):
    items = pick(workloads.build(workload, 5))
    first = harness.run(workload, 5, 0, traced=True, items=items)
    again = harness.run(workload, 5, 0, traced=True, items=items)
    assert first["failed"] == again["failed"] == 0
    assert _counts(first) == _counts(again)
    assert first["per_layer"]["contour.integrand_evals"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
