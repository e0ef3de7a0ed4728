"""Sampling how fast the machine runs while the benchmark measures.

The benchmark shares a few cores of a host with other tenants. The speed
those cores give switches between a fast and a slow mode every few seconds,
and the slow mode costs the solver about 20 to 40 %. A 30 s run of 2 s
instances sees only a few switches, so its raw times move by 20 to 30 % from
run to run. `Speed` samples the machine's speed all through the measured
work, and the benchmark scales each span by the speed it ran at.

A sample times a small fixed kernel of exact `Fraction` arithmetic, the
solver's own kind of work: with small and prime denominators for oneshot,
with kilobit denominators for grid and deepden, whose times swing with the
host's modes as that kernel's do (the small-denominator kernel swings more
than theirs). Its data fit in a few cache lines, so what it measures is the
core's speed, not the state of the cache around it. It is pure Python and
does not use lexflow, so no change to lexflow changes its cost.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

# Time between samples; one sample costs about 1.5 % of it.
INTERVAL_S = 0.02

_TERMS = [(713_417, 10_007), (3, 7), (999_983, 10_009), (5, 6), (28, 3), (1, 10_037)]
# Products of 32 distinct primes near 10**4 (about 430 bits each), whose lcm
# is about as long as a deepden two-pole capacity.
_PRIMES = [p for p in range(10_001, 11_500, 2) if all(p % q for q in range(3, 108, 2))]
_DEEP = [math.prod(_PRIMES[j:128:4]) for j in range(4)]


def fraction_kernel() -> Fraction:
    """Small-denominator `Fraction` arithmetic; the oneshot kernel."""
    total = Fraction(0)
    partial: dict[int, Fraction] = {}
    for i in range(30):
        p, q = _TERMS[i % len(_TERMS)]
        f = Fraction(p + i, q)
        partial[i % 7] = partial.get(i % 7, Fraction(0)) + f
        total += f * partial[i % 7]
    return total


def bigint_kernel() -> Fraction:
    """`Fraction` arithmetic on kilobit denominators, as in deepden's
    two-pole networks; the grid and deepden kernel."""
    total = Fraction(0)
    for i in range(16):
        total += Fraction(713_417 + i, _DEEP[i % 4])
        total *= Fraction(_PRIMES[i], 7)
    return total


# Each kernel with its median time on the machine the benchmark was
# calibrated on (a 2-core Intel Xeon virtual machine, Python 3.11.7): scaled
# times read as seconds on that machine in its usual mode.
KERNELS = {
    "fraction": (fraction_kernel, 0.000300),
    "bigint": (bigint_kernel, 0.000250),
}


class Speed:
    """Times a kernel every INTERVAL_S of wall time, while active.

    Used as a context manager: an interval timer interrupts the benchmark,
    between two bytecodes, to time one run of the kernel. `clock()` is
    `time.perf_counter()` minus the time the samples took, so a span timed
    with it leaves the sampling out; `factor(since)` scales a span that
    began when `len(samples)` was `since`.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel, self.reference_s = KERNELS[kernel]
        self.samples: list[float] = []
        self._spent = 0.0

    def __enter__(self) -> Speed:
        for _ in range(50):  # warm-up
            self.kernel()
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *signal_args: object) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        self._spent += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def factor(self, since: int) -> float:
        """The reference time over the median sample taken since `since`.

        A span too short to have been sampled takes the median of all.
        """
        return self.reference_s / statistics.median(self.samples[since:] or self.samples)
