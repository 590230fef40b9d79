"""Reference kernel: fixed pure-Python work that shows how fast this machine
runs Python at the moment it is timed.

On the shared 2-vCPU VM where the benchmark was defined, the same code ran
up to half again as slow for minutes at a time. Timings are therefore
scaled to a nominal machine on which one kernel pass takes NOMINAL_S:

    scaled = measured * NOMINAL_S / (kernel pass time measured next to it)

The kernel mixes the program's two kinds of hot loop: a float recurrence
like the Sturm count, and exact Fraction arithmetic like the verify suites.
It does not call the program, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.006
PASSES = 3

_DATA = [2.0 + 1.0 / (k + 1) for k in range(2000)]


def _kernel() -> tuple[int, Fraction]:
    count, q = 0, 1.0
    for _ in range(20):
        for x in _DATA:
            q = (x - 0.25) - 0.9 / q
            if q < 0.0:
                count += 1
    total = Fraction(0)
    for k in range(1, 250):
        total += Fraction(k, k + 1) * Fraction(1, 3)
    return count, total


def pass_seconds() -> float:
    """Median time of PASSES kernel passes."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel timings to the
    nominal machine."""
    return NOMINAL_S / ((before + after) / 2)
