"""Wall time scaled by the host's speed, measured inside the timed process.

The benchmark's host is a shared 2-vCPU guest whose speed changes from
one second to the next (the same Python loop runs up to 1.7x slower in
some spells) and whose share of slow spells drifts over tens of minutes,
so raw wall times of the same code spread by 10-25% between runs.

A `Clock` started in a timed process runs a small fixed reference kernel
every INTERVAL_S seconds (on SIGALRM, in the main thread between
bytecodes) and records how long it took.  `stop()` returns the raw wall
time since `start()` and the same interval in reference seconds: each
stretch of work before a sample counts REFERENCE_S / r seconds per
second, where r is the running median of the reference times around that
sample.  The kernel's own time is left out.  On a host running at the
speed at which REFERENCE_S was measured, reference seconds are seconds.

The kernel has the shape of shortvec's enumeration (divmod, isqrt, a short
loop, recursion) plus a plain integer loop; on a 10-run test of the
leech-slice workload it brought the spread of the wall time from 0.062 to
0.012 of the median, where the plain loop alone reached 0.03.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from pathlib import Path

INTERVAL_S = 0.04
# median time of reference() on the 2-vCPU 2.0 GHz Xeon guest the bounds
# were set on; it fixes the unit, and must not change between two
# measurements that are compared
REFERENCE_S = 450e-6
SMOOTH = 2  # running median over 2 * SMOOTH + 1 samples

_G = (7, 5, 3, 11, 13, 2, 9, 4)
_X = [0] * 8  # preallocated, so that the kernel makes no object the GC tracks


def _descend(k: int, acc: int) -> int:
    if k < 0:
        return acc & 1
    g = _G[k]
    lo = (acc + 97) // g
    kmax = math.isqrt(acc + 40)
    n = 0
    for xv in range(-1, 2):
        kv = g * xv + lo
        a2 = acc + kv * kv + kmax
        _X[k] = xv
        if a2 & 3:
            n += _descend(k - 1, a2 % 1009)
    return n


def reference() -> int:
    s = 0
    for i in range(3000):
        s += i
    return s + _descend(5, 11)


class Clock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.t0 = 0.0
        self._old = None

    def _sample(self, *_) -> None:
        t = time.perf_counter()
        reference()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """Stop sampling; return {"raw_s", "scaled_s", "samples"}."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()  # at least one sample, and one for the last stretch
        t1 = self.samples[-1][0]
        signal.signal(signal.SIGALRM, self._old)
        durations = [d for _, d in self.samples]
        scaled, prev = 0.0, self.t0
        for i, (t, d) in enumerate(self.samples):
            r = statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1])
            scaled += max(t - prev, 0.0) * REFERENCE_S / r
            prev = t + d
        return {"raw_s": t1 - self.t0, "scaled_s": scaled, "samples": len(self.samples)}

    def stop_to(self, path: Path) -> dict:
        reading = self.stop()
        path.write_text(json.dumps(reading))
        return reading
