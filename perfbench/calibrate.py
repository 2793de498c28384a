"""How fast the machine is running right now, from fixed probes.

On a shared machine the speed available to one process drifts by half or
more over seconds to minutes, whether the time is read from the wall clock
or as CPU time.  A probe that does the same work every time measures that
drift: its duration, taken right before and right after a stretch of timed
work, says how much slower than usual the machine ran meanwhile.  The
benchmark divides each measured time by that slowness, so its figures are
seconds at the reference speed: the speed at which each probe takes its
reference duration (about its duration on an unloaded machine).

Two probes, neither of which uses grade3, so a change to grade3 cannot
change them:

* :func:`measure` runs pure-Python work of the kinds grade3 does (dict and
  tuple traffic, small and big integer arithmetic, fraction-free
  elimination on a small matrix) in this process;
* :func:`measure_spawn` also starts a bare interpreter (``python -S -c
  pass``), for work that is mostly starting processes, such as CLI queries,
  and averages the two.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

# Reference durations: about each probe's duration on an unloaded 2-core
# x86-64 machine with Python 3.11.
REFERENCE_S = 0.004
SPAWN_REFERENCE_S = 0.010
PROBES = 2
# Seconds between speed probes while a long call runs (see Sampler).
SAMPLE_INTERVAL_S = 0.1


def _probe() -> float:
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(12000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + 1
        acc += (i * 7919) % 104729
    big = 3**400
    for i in range(600):
        acc += (big * (i + 1)) // (i + 7) % 1000
    size = 16
    rows = [[(i * j + 3) % 17 - 8 for j in range(size)] for i in range(size)]
    prev = 1
    for c in range(size):
        pivot = rows[c][c] or 1
        for r in range(c + 1, size):
            f = rows[r][c]
            rows[r] = [(pivot * x - f * y) // prev for x, y in zip(rows[r], rows[c])]
        prev = pivot
    return time.perf_counter() - start


def _spawn_probe() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


def measure() -> float:
    """Slowness now (1.0 at reference speed): the fastest of a few probes."""
    return min(_probe() for _ in range(PROBES)) / REFERENCE_S


def measure_spawn() -> float:
    """Slowness now for work that starts interpreters: the mean of both probes' slowness."""
    return (min(_spawn_probe() for _ in range(PROBES)) / SPAWN_REFERENCE_S + measure()) / 2.0


class Sampler:
    """Probes the speed every ``SAMPLE_INTERVAL_S`` seconds while a long call runs.

    A timer signal interrupts the call between bytecodes, runs one
    :func:`measure` and returns; the time spent probing is kept apart so it
    can be taken out of the measured time.  Use as a context manager around
    work that runs in this thread and does not use ``SIGALRM`` itself.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.probe_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(measure())
        self.probe_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.readings.append(measure())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.readings.append(measure())

    def clock(self) -> float:
        """Seconds, not counting the time spent in probes."""
        return time.perf_counter() - self.probe_s

    def scale(self) -> float:
        """Factor to reference-speed seconds: one over the mean slowness seen."""
        return len(self.readings) / sum(self.readings)


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two slowness readings to reference-speed seconds."""
    return 2.0 / (before + after)
