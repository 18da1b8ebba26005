"""conifoldrh benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload algebra --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root (the package is taken from src/).  The workload
runs in one fresh single-threaded process (bench/harness.py); `setup_s` is
measured in separate fresh processes.  Times are calibrated against the
machine's speed of the moment (bench/calibrate.py).  Each metric is printed
by name with its unit; the last line of standard output is the JSON result.
Records and spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("algebra", "quadrature", "cli-session")
#: fresh-process imports timed for setup_s, after one untimed warm-up
SETUP_SAMPLES = 9
#: every run must exit well inside this
RUN_LIMIT_S = 170.0
SETUP_CODE = """\
import calibrate
with calibrate.Timeline() as timeline:
    t0 = timeline.clock()
    import conifoldrh, conifoldrh.cli
    t1 = timeline.clock()
print(repr(timeline.scale(t0, t1)))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
               PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds(env: dict) -> float:
    """Median calibrated time to import conifoldrh and conifoldrh.cli in a
    fresh process (calibrate.py)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    env = child_env()
    setup = setup_seconds(env) if not trace else None
    cmd = [sys.executable, str(ROOT / "bench" / "harness.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(ROOT / ".bench_out")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "conifoldrh" / "__init__.py").is_file():
        print(f"error: no conifoldrh package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for metric, m in sorted(res["metrics"].items()):
            print(f"{name:12s} {metric:36s} {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
