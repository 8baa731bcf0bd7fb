"""How fast the shared host runs Python while the benchmark measures.

On a small shared host the CPU's speed drifts by 15-30% over minutes as
other tenants load the machine.  Steal time stays near zero, so CPU time
drifts as much as wall time, and longer runs do not help: medians over 15,
30 and 60 second windows spread alike, and the speed can change by a
third from one second to the next.  The benchmark therefore runs a fixed
pure-Python kernel after each job, for SHARE of the job's time, and
divides the job's time by the kernel's slowdown against REFERENCE_S, taken
from the NEIGHBOURS kernel runs nearest the job.  The kernel never calls
the program, so a change to the program moves the normalized times and a
change of host speed mostly does not; it tracks jobs of several seconds
poorly (see README.md, "Noise").  It runs with the garbage collector off and
allocates little, so the collector settings and the heap that the program
leaves behind cannot change its time either.
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

# The kernel's median time, collector off, on the host where the benchmark
# was introduced (2 vCPUs, Python 3.11.7): normalized times read in seconds
# of that host.
REFERENCE_S = 0.0091
# Kernel time spent per second of measured time.
SHARE = 0.15
# Kernel runs that set one job's slowdown: half of them run before the job,
# half after it.  Fewer follow the drift too noisily; more, too slowly.
NEIGHBOURS = 8


def kernel() -> float:
    """Seconds taken by a fixed workload in the style of the LP core: exact
    Gauss-Jordan elimination over `Fraction` on an 11 x 12 matrix of small
    integers.  The collector is off meanwhile and is left as found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    started = perf_counter()
    rng = random.Random(2)
    n = 11
    m = [[Fraction(rng.randint(-5, 5)) for _ in range(n + 1)] for _ in range(n)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return perf_counter() - started


@dataclass
class Gauge:
    """Kernel samples taken alongside one run, in the order they were taken."""

    samples: list[float] = field(default_factory=list)
    debt: float = 0.0

    def sample(self) -> None:
        self.samples.append(kernel())

    def owe(self, measured: float) -> None:
        self.debt += SHARE * measured

    def pay(self) -> None:
        while self.debt > 0:
            self.sample()
            self.debt -= self.samples[-1]

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """Median kernel time of samples[start:stop] over REFERENCE_S."""
        return statistics.median(self.samples[start:stop]) / REFERENCE_S

    def slowdown_at(self, mark: int) -> float:
        """Slowdown from the NEIGHBOURS samples nearest `mark`, the index
        the next sample had when a job ended: half before it, half after,
        shifted inwards at either end of the run."""
        start = max(0, min(mark - NEIGHBOURS // 2, len(self.samples) - NEIGHBOURS))
        return self.slowdown(start, start + NEIGHBOURS)
