"""Calibrated timing: wall time rescaled by the speed of the core it ran on.

The cores this benchmark was developed on are shared: the same solve loop
ran at anywhere from 1.0x to 2.0x speed from one second to the next, while
process CPU time stayed equal to wall time. A fixed pure-Python kernel that
never touches the library slowed down with it, so that the ratio of solve
time to kernel time over one-second windows varied by only 2% (CV) where
either time alone varied by 20% (see README.md).

So the run times ``kernel`` every TICK_EVERY_S and multiplies each measured
time by REF_KERNEL_S / (median kernel time of the ticks around it). A
calibrated time reads as wall time on a core where the kernel takes exactly
REF_KERNEL_S, and it moves one-for-one with the cost of the measured code.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter

# The kernel's median time on the machine the benchmark was tuned on (two
# shared vCPUs, Intel Xeon at 2.0 GHz, Python 3.11), so that calibrated
# times there read close to wall times.
REF_KERNEL_S = 900e-6
TICK_EVERY_S = 0.02
# Ticks on each side whose median calibrates a time.
NEIGHBOURS = 2
# Untimed kernel calls before the first tick.
WARMUP_KERNELS = 3


def kernel() -> int:
    """Fixed interpreter work like the library's: small tuples, dict
    traffic, generator expressions, comparisons and calls."""
    table = {}
    for i in range(300):
        key = (i % 7, i % 11, i % 13)
        table[key] = tuple(max(a, b) for a, b in zip(key, (3, 5, 7)))
    return sum(sum(v) for v in table.values())


class Calibrator:
    """Kernel times taken during a run; a time measured after tick i is
    calibrated by the ticks around i."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self._last = float("-inf")
        for _ in range(WARMUP_KERNELS):
            kernel()

    def tick(self) -> int:
        """Time the kernel once; returns the tick's index."""
        t0 = clock()
        kernel()
        self._last = clock()
        self.kernel_s.append(self._last - t0)
        return len(self.kernel_s) - 1

    def maybe_tick(self) -> int:
        """Tick when TICK_EVERY_S has passed since the last one; returns the
        index of the latest tick."""
        if clock() - self._last >= TICK_EVERY_S:
            return self.tick()
        return len(self.kernel_s) - 1

    def scale(self, i: int) -> float:
        """Factor for a time measured after tick i."""
        around = self.kernel_s[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]
        return REF_KERNEL_S / statistics.median(around)

    def run_scale(self) -> float:
        """Factor from every tick of the run, for times taken in bulk."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)
