"""Machine-speed probe for normalising wall times on a shared machine.

On a small shared machine the speed of the same code drifts by tens of
percent over seconds and minutes, as other tenants load the cores: a whole
run can fall in a slow phase. The thread CPU time moves with the wall time,
so measuring CPU time does not help. The probe instead samples the current
speed while the workload runs: every ``INTERVAL`` seconds a SIGALRM handler
runs a fixed kernel (Python integer mixing plus small numpy products, the mix
the workloads spend their time in) on the main thread and records its thread
CPU time. ``slowdown(t0, t1)`` is the mean sample over an interval divided by
``NOMINAL_S``, about the kernel's fastest time on the 2-core machine the
benchmark was tuned on, so a wall time divided by it is the time the same
work would take at that nominal speed.

Thread CPU time excludes waits for the interpreter lock, so samples taken
while worker threads hold it are not inflated. The handler adds about 1% to
every timed interval, the same on every run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
NOMINAL_S = 80e-6

_MASK = (1 << 64) - 1
_A = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def kernel() -> int:
    z = 12345
    for _ in range(150):
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    a = _A
    for _ in range(20):
        a = np.maximum(a @ _A, 0.0) * 0.5
    return z


class SpeedProbe:
    """Context manager that samples the kernel's speed while it is open."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall time, kernel CPU s)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        self.samples.append((start, time.thread_time() - cpu))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean kernel time over [t0, t1) relative to the nominal speed."""
        inside = [cpu for wall, cpu in self.samples if t0 <= wall < t1]
        if not inside:
            raise RuntimeError("no speed samples in the interval")
        return statistics.fmean(inside) / NOMINAL_S
