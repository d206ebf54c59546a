"""Timing scaled to a reference CPU speed, so runs taken at different host speeds compare.

The host this benchmark was sized on (a 2-vCPU KVM guest) changes speed by
up to 1.8x for seconds to minutes at a time, as its neighbours' load moves
it. A fixed pure-Python kernel, timed just before and just after each sample,
measures the speed of the moment; the sample's wall time is then scaled by
REFERENCE_S over the kernel's mean time, which reads as seconds on a host
where the kernel takes REFERENCE_S. Over 100 s of `sweep-small` commands,
the median of 10 s windows varied by 2% scaled against 30% unscaled
(interquartile range over median; bench/NOTES.md). Changes to freqroute do
not touch the kernel, so they show in full.
"""

from __future__ import annotations

import math
import time

REFERENCE_S = 0.0006  # the kernel's time on the reference host, in its slow phase
KERNEL_REPEATS = 5  # back-to-back kernel runs per measurement; the fastest counts


_TABLE = {k: k * 0.5 for k in range(1009)}


def kernel() -> float:
    """Fixed interpreter work: integer and float math, calls and dict lookups.

    It allocates nothing that outlives an iteration, so its time does not
    depend on the state of the memory allocator, only on the CPU's speed.
    """
    table = _TABLE
    total = 0.0
    for i in range(3000):
        total += math.hypot(table[i * 7919 % 1009], i)
    return total


def kernel_s() -> float:
    """The kernel's time now: the fastest of a few back-to-back runs, which drops one-off stalls."""
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """A wall time expressed in reference seconds, from the kernel times around it."""
    return wall_s * REFERENCE_S * 2 / (kernel_before_s + kernel_after_s)


def scaled_call(fn):
    """Run fn() once; returns its result and its scaled duration."""
    before = kernel_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, scaled(wall, before, kernel_s())
