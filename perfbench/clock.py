"""Wall times scaled to a reference machine speed.

A shared host runs this process at a speed that drifts by half or more
over seconds to minutes (other tenants take the core's caches and
cycles; CPU time drifts with wall time, so process time does not help).
A run's raw times then measure the host as much as the program.

So the benchmark runs a fixed reference loop, independent of gradedk,
between jobs (at least every ``SEGMENT_S`` of job time) and scales each
job's wall time by ``REF_S / r``, where ``r`` is the mean of the
reference times measured just before and just after it.  A scaled time
reads in seconds on a machine that runs the reference loop in ``REF_S``.
A program change moves it as it moves the raw time; a host slowdown
moves the job and the reference loop alike and mostly cancels out.
"""

import gc
import random
import statistics
import time
from fractions import Fraction

# The unit of a scaled time: seconds on a machine that runs the reference
# loop in 10 ms, about what the 2-core shared x86-64 host of the baseline
# (Python 3.11) does.
REF_S = 0.010

# The most job time between two reference measurements.
SEGMENT_S = 0.4

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(12)]
           for _ in range(12)]


def reference_loop():
    """Gauss-Jordan elimination over Q on a fixed 12x12 matrix of small
    fractions, whose entries grow as it goes: the big-integer and list
    work that gradedk's exact linear algebra does."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def reference_time(repeat=3):
    """Median time of ``repeat`` reference loops.  The collector is off, so
    the time does not depend on how much the program has allocated."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class ScaledClock:
    """Collects raw wall times and scales them at the next reference
    measurement.  ``record(out, t)`` appends ``t`` to the list ``out``;
    the entry is scaled in place once ``flush()`` (or enough further job
    time) has measured the reference loop after it."""

    def __init__(self):
        self.ref = reference_time()
        self.pending = []
        self.since = 0.0
        self.raw_total = 0.0

    def record(self, out, seconds):
        out.append(seconds)
        self.pending.append((out, len(out) - 1))
        self.since += seconds
        self.raw_total += seconds
        if self.since >= SEGMENT_S:
            self.flush()

    def flush(self):
        ref = reference_time()
        scale = REF_S / ((self.ref + ref) / 2)
        for out, i in self.pending:
            out[i] *= scale
        self.ref, self.pending, self.since = ref, [], 0.0
