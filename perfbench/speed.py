"""Machine-speed probes: report times at a fixed reference speed.

On a shared host the CPU's speed drifts by tens of percent within seconds
(another tenant on the sibling hyperthread, frequency changes), so raw wall
times of one pass spread more than a useful regression bound.  The
benchmark therefore measures the speed of a short fixed pure-Python probe
while it measures an interval, and scales the interval to the reference
speed, at which one probe burst takes ``REFERENCE_S`` seconds.  A program
change moves the scaled time as it moves the raw time; a machine slowdown
moves probe and interval alike and cancels.  Raw times stay in each run's
record under ``perfbench/out/``.

* :class:`Sampler` — for an interval run by this thread alone (a compile):
  a timer signal interrupts it every ``INTERVAL`` seconds for one burst, so
  the probes see the speed the interval saw; the bursts' own time is taken
  out of the interval.
* :func:`probe_all_cpus` — for an interval whose work runs in other
  processes (set-up, the compilation server): bursts on every CPU before
  and after it, while nothing else of the benchmark runs.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

#: Burst seconds that define the reference speed (about the burst's time on
#: the 2-vCPU Xeon host the baseline was measured on).
REFERENCE_S = 0.002
#: Seconds between two bursts of a :class:`Sampler`.
INTERVAL = 0.2
BURSTS = 5
MAX_CPUS = 4


def burst() -> float:
    """Seconds of one fixed unit of interpreter work: dicts, ints, strings, Fractions."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = Fraction(0)
    length = 0
    for i in range(500):
        table[i % 97] = table.get(i % 97, 0) + i
        length += len(str(i))
        total += Fraction(i % 7, 3)
    return time.perf_counter() - start


def probe() -> float:
    """Burst seconds on the CPU this thread runs on (median of a few bursts)."""
    return statistics.median(burst() for _ in range(BURSTS))


class Sampler:
    """Times one interval of this (main) thread at the reference speed.

    ``raw`` is the interval's wall without the bursts; ``seconds`` is
    ``raw`` scaled by the time-weighted speed the bursts measured.
    """

    def __enter__(self) -> "Sampler":
        self.samples = [probe()]
        self.overhead = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(burst())
        self.overhead += time.perf_counter() - started

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = time.perf_counter() - self._start - self.overhead
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        self.seconds = self.raw * statistics.fmean(REFERENCE_S / p for p in self.samples)


def probe_all_cpus() -> float:
    """Mean probe over the CPUs this process may use (up to ``MAX_CPUS``).

    For intervals whose work runs in several processes (the compilation
    server and its clients), which may sit on any of the CPUs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return probe()
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            samples.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(samples)


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* at the reference speed, given probes before and after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)

