"""Machine-speed calibration of the benchmark's times.

The CPU speed a shared host gives one process drifts by up to 1.7x within a
few seconds, so raw wall times of the same code spread more than any useful
bound.  A fixed pure-Python loop (dict, integer, complex, string, JSON and
regex work, like the interpreter-bound package and its CLI) is timed every
INTERVAL_S by a SIGALRM handler in the measured process itself, so samples
land inside long calls too; its time slows and speeds with the machine.  A measured time t (with
the handler's own time taken out) is reported as

    t * NOMINAL_S / (mean of the samples during t and just around it)

that is, in the seconds of a machine on which one sample takes NOMINAL_S.
A change in the package moves calibrated times as it moves raw ones; a
change of machine speed cancels.  Records keep the raw times next to them.

No package import here: the set-up probe loads this before timing imports.
"""

from __future__ import annotations

import bisect
import json
import re
import signal
import time

#: iterations of the loop in one run, and runs per sample (the fastest counts)
LOOP = 600
REPEATS = 3
#: the sample time that defines the unit of calibrated times (a constant)
NOMINAL_S = 1.5e-3
#: seconds between samples
INTERVAL_S = 0.1


def _loop() -> int:
    d: dict = {}
    z = 0j
    xs = []
    for i in range(LOOP):
        d[i & 63] = d.get(i & 63, 0) + i * i
        z = z * 0.5 + complex(i, 1.0)
        xs.append(f"{i}:{z.real:.3f}")
        if i % 20 == 0:
            json.loads(json.dumps({"a": i, "b": [1.5, 2.5], "c": str(i)}))
            re.match(r"(\w+)=(.*)", f"x{i}=1+2i")
            sorted(xs[-20:])
    return len(xs) + len(d)


def sample() -> float:
    """Seconds of one calibration sample (fastest of REPEATS loop runs)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


class Timeline:
    """Calibration samples taken every INTERVAL_S while started.

    `mark()` reads the clock with the sampling time taken out; `scale(a, b)`
    calibrates the time between two marks.  Use as a context manager.
    """

    def __init__(self):
        self.at: list[float] = []        # clock() when each sample ended
        self.seconds: list[float] = []   # each sample's time
        self.paused = 0.0                # total time spent sampling
        self._old = None

    def _take(self, *_) -> None:
        t0 = time.perf_counter()
        s = sample()
        t1 = time.perf_counter()
        self.paused += t1 - t0
        self.at.append(t1 - self.paused)
        self.seconds.append(s)

    def clock(self) -> float:
        """perf_counter() without the time spent sampling."""
        while True:     # retry if a sample lands between the two reads
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def __enter__(self) -> Timeline:
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._take()

    def scale(self, start: float, end: float) -> float:
        """Calibrated seconds between clock() readings `start` and `end`:
        the samples taken between them and the one on each side count."""
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = min(bisect.bisect_left(self.at, end) + 1, len(self.at))
        around = self.seconds[lo:hi]
        return (end - start) * NOMINAL_S * len(around) / sum(around)
