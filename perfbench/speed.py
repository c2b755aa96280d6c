"""Machine-speed calibration for timings taken on a shared, drifting machine.

On the 2-core machine this benchmark was built on, the same numpy and pure
Python kernels ran up to 2x slower for minutes at a time while other tenants
were busy, with CPU time equal to wall time: the process was not descheduled,
it ran slower. Wall times of identical solves then spread by 20% across runs.

``Speedometer.tick()`` times a fixed kernel owned by the benchmark: a gather
and segmented sum over 100k entries, like the program's transposed matvec.
Timed between solves, it tracked their times better than a scalar Python
loop or a mix of both (per-solve spread 12-13% after scaling, 22% raw).
``seconds`` drops the ticks that fall inside a timed interval and scales each
remaining piece by ``REFERENCE_S / mean(the two ticks around it)``, which
reports the interval in seconds at the reference speed. The kernel does not
touch greedycd, so a change to the program cannot change the scale.
"""

import bisect
import time

import numpy as np

REFERENCE_S = 0.05   # kernel time at the reference speed
KERNEL_REPEATS = 300


class Speedometer:

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._vals = rng.standard_normal(100_000)
        self._rows = rng.integers(0, 100, 100_000)
        self._starts = np.arange(0, 100_000, 100)
        self._vec = rng.standard_normal(100)
        self.ends = []      # perf_counter at the end of each tick
        self.starts = []    # perf_counter at the start of each tick
        self.kernel_s = []  # kernel time of each tick

    def _kernel(self):
        for _ in range(KERNEL_REPEATS):
            np.add.reduceat(self._vals * self._vec[self._rows], self._starts)

    def tick(self):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)

    def seconds(self, t0, t1, scaled=True):
        """Seconds in [t0, t1] less the ticks inside it, at reference speed
        unless ``scaled`` is false."""
        total = 0.0
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        cuts = [t0] + [x for i in range(first, last)
                       for x in (self.starts[i], self.ends[i])] + [t1]
        for a, b in zip(cuts[0::2], cuts[1::2]):
            before = bisect.bisect_right(self.ends, a) - 1
            after = bisect.bisect_left(self.starts, b)
            around = [self.kernel_s[i] for i in (before, after)
                      if 0 <= i < len(self.kernel_s)]
            if not around:
                raise RuntimeError("no speed tick around a timed interval")
            total += (b - a) * (REFERENCE_S * len(around) / sum(around)
                                if scaled else 1.0)
        return total
