"""Measure how fast the machine runs right now, independent of the library
under test.

A fixed piece of pure-Python work (fraction-free elimination on integer
rows and Fraction sums on fixed data) runs every 50 ms, interrupting
the workload from a timer signal, so it samples the machine's speed during
the very intervals the workload is timed in.  Its duration moves only with
the machine: frequency changes and contention from other tenants of a
shared host slow it as they slow the workload.  The time spent sampling is
taken out of the workload's times, and the benchmark reports times in
reference seconds, in which one run of the fixed work takes
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.001
EVERY_S = 0.05


def _work() -> None:
    n = 14
    rows = [[(i * 31 + j * 17) % 23 - 11 for j in range(n + 3)] for i in range(n)]
    prev = 1
    for c in range(n):
        pivot_row = rows[c]
        pivot = pivot_row[c] or 1
        for i in range(c + 1, n):
            factor = rows[i][c]
            rows[i] = [(x * pivot - factor * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = pivot
    sum(Fraction(i % 9 - 4, i % 5 + 1) for i in range(300))


def sample() -> float:
    """Duration of one run of the fixed work, in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Sampler:
    """Runs the fixed work every EVERY_S seconds of wall time while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the samples took, including the handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples.append(sample())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent
