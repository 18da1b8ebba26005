"""One workload run in one fresh process: passes, checks, metrics, record.

A closed loop: one caller issues the workload's items one after another and
times each call.  Passes over the fixed item list repeat until the run's
seconds are used; every item's output is checked outside its timed span.
With tracing off the end-to-end metrics are reported; with tracing on the
passes alternate untraced and traced, and the per-layer metrics come from
the traced ones.  Call times are calibrated against the machine's speed
(calibrate.py).

Run through bench/run.py, which sets the single-thread environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import calibrate
import spans as tracing
import workloads
from conifoldrh import multisine

#: ladder of percentiles the tail is reported at
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples (exact arithmetic)."""
    return max(math.ceil(Fraction(n) * Fraction(str(p)) / 100), 1)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it
    (the median when n < 20)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= 10:
            best = p
    return best


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


class Runner:
    """Runs the item list, checks outputs and counts failures by type."""

    def __init__(self, workload: str, items: list):
        self.items = items
        self.calls = [workloads.prepare(it) for it in items]
        self.clear_each = workload == "cli-session"
        self._verdicts: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.failures: list[dict] = []

    def _fail(self, item, kind: str, detail: str) -> None:
        self.failed += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1
        if len(self.failures) < 20:
            self.failures.append({"item": item.id, "error": kind, "detail": detail[:300]})

    def _check(self, item, out) -> None:
        prev = self._verdicts.get(item.id)
        if prev is not None and prev[0] == out:
            ok, detail = prev[1], prev[2]     # identical to an output already checked
        else:
            try:
                ok, detail = workloads.check(item, out)
            except Exception as exc:          # the check itself failed: count it
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
            self._verdicts[item.id] = (out, ok, detail)
        if not ok:
            self._fail(item, "CheckFailed", detail)

    def run_pass(self, timeline: calibrate.Timeline,
                 tracer: tracing.Tracer | None = None) -> list[list[tuple]]:
        """One pass; returns each item's calls as (start, end) clock readings
        of `timeline` (see `calibrated`)."""
        multisine.clear_caches()
        intervals = []
        for item, call in zip(self.items, self.calls):
            item_intervals = []
            for _ in range(item.repeat):
                if self.clear_each:
                    multisine.clear_caches()
                if tracer is not None:
                    tracer.item = item.id
                    tracer.enabled = True
                out, exc = None, None
                t0 = timeline.clock()
                try:
                    out = call()
                except Exception as e:  # counted by type, never dropped
                    exc = e
                item_intervals.append((t0, timeline.clock()))
                if tracer is not None:
                    tracer.enabled = False
                self.attempted += 1
                if exc is not None:
                    self._fail(item, type(exc).__name__, str(exc))
                else:
                    self._check(item, out)
            intervals.append(item_intervals)
        return intervals


def calibrated(timeline: calibrate.Timeline, passes: list) -> list[list[list[float]]]:
    """Each call's calibrated seconds, per pass and item."""
    return [[[timeline.scale(a, b) for a, b in item] for item in p] for p in passes]


def raw(passes: list) -> list[list[list[float]]]:
    """Each call's seconds with the sampling time taken out, per pass and item."""
    return [[[b - a for a, b in item] for item in p] for p in passes]


def _total(times: list[list[float]]) -> float:
    return sum(map(sum, times))


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    """Whole passes until `seconds` are used; traced runs alternate U/T."""
    tracer = tracing.Tracer() if traced else None
    untraced, traced_passes, snaps = [], [], []
    with calibrate.Timeline() as timeline:
        t_start = timeline.clock()
        while True:
            use_trace = traced and len(untraced) > len(traced_passes)
            p0 = timeline.clock()
            if use_trace:
                tracer.reset()
                tracer.install()
                try:
                    traced_passes.append(runner.run_pass(timeline, tracer))
                finally:
                    tracer.uninstall()
                snaps.append(tracer.snapshot())
            else:
                untraced.append(runner.run_pass(timeline))
            now = timeline.clock()
            if (not traced or traced_passes) and 2 * now - p0 - t_start > seconds:
                break
    return {"untraced": calibrated(timeline, untraced),
            "traced": calibrated(timeline, traced_passes), "snaps": snaps,
            "raw_untraced": raw(untraced), "elapsed_s": now - t_start,
            "calibration": calibration_info(timeline)}


def end_to_end(passes: list[list[list[float]]]) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, plus how they were taken."""
    by_item = [statistics.median(t for ts in item for t in ts) for item in zip(*passes)]
    per_item = sorted(by_item)
    p = tail_percentile(len(per_item))
    metrics = {
        "wall_s": sum(by_item),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "item_tail_ms": 1e3 * percentile(per_item, p),
    }
    how = {"passes": len(passes), "pass_wall_s": [_total(ts) for ts in passes],
           "latency_samples": "per-item median over all its calibrated calls",
           "sample_count": len(per_item), "tail_percentile": p,
           "item_latency_ms": [1e3 * t for t in by_item]}
    return metrics, how


def calibration_info(timeline: calibrate.Timeline) -> dict:
    """How the times were calibrated."""
    cal = sorted(timeline.seconds)
    return {"nominal_sample_s": calibrate.NOMINAL_S, "interval_s": calibrate.INTERVAL_S,
            "samples": len(cal), "sample_s_min_median_max":
                [cal[0], statistics.median(cal), cal[-1]],
            "sampling_s": timeline.paused}


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__,
            "threads_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run(workload: str, seed: int, seconds: float, traced: bool,
        out_dir: Path | None = None, items: list | None = None) -> dict:
    """Measure one workload; returns the record (result under "result")."""
    if items is None:
        items = workloads.build(workload, seed)
    runner = Runner(workload, items)
    m = measure(runner, seconds, traced)
    e2e, how = end_to_end(m["untraced"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine_info(), "inputs": workloads.properties(workload, items),
        "loop": "closed loop, one caller in one process",
        "measurement": how, "elapsed_s": m["elapsed_s"],
        "calibration": {**m["calibration"], "raw_pass_wall_s":
                        [_total(ts) for ts in m["raw_untraced"]]},
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "errors_by_type": runner.errors, "failures": runner.failures,
    }
    if traced:
        layer = tracing.combine([tracing.pass_metrics(s) for s in m["snaps"]],
                                [_total(ts) for ts in m["untraced"]],
                                [_total(ts) for ts in m["traced"]])
        record["per_layer"] = layer
        record["missing_layers"] = tracing.missing(workload, layer)
        metrics = {k: {"value": v, "unit": tracing.METRICS[k]} for k, v in layer.items()}
    else:
        e2e["ok_frac"] = 1 - record["failed_frac"]
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["end_to_end"] = e2e
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    record["result"] = {"correct": runner.failed == 0, "attempted": runner.attempted,
                        "failed": runner.failed, "metrics": metrics}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(traced)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(
            {**record, "items": [it.to_json() for it in items]}, indent=1))
        if traced:
            (out_dir / f"{stem}-spans.json").write_text(json.dumps(m["snaps"]))
    return record


UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
         "ok_frac": "frac", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir)
    except Exception:
        traceback.print_exc()
        return 1
    if record.get("missing_layers"):
        print("traced run: metrics read zero on a workload that exercises them: "
              + ", ".join(record["missing_layers"]), file=sys.stderr)
        return 1
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
