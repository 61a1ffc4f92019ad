"""Timings scaled to a fixed host speed.

The reference machine is a shared virtual machine whose speed drifts by
up to 1.9x in phases of seconds to minutes, in CPU time as much as in
wall time and with no steal time reported. Raw wall times of the same
code spread by 0.1-0.45 (quartile distance over median) between runs,
depending on the host's load, and a ten-second operation ran anywhere
from 10 to 16 s.

A ``Clock`` times a short, fixed, pure-Python reference routine on a
timer signal every ``EVERY`` seconds, wherever the process is, inside
operations too. The time the calibrations take is left out of every
interval the clock measures. An interval is then scaled to the speed of
a host that runs the reference routine in ``REFERENCE_S`` (about the
reference machine in its fast phases):

- an interval that holds calibrations is scaled by REFERENCE_S times the
  mean of 1/time over them, which is the work done at each moment's
  speed summed over the interval;
- one that holds none by REFERENCE_S over the median of the two
  calibrations before it and the two after it.

Over a minute in which raw times of one rural synthesis swung from 20 to
33 ms between four-second windows, the scaled times of those windows
stayed within 5% of each other; four runs of a ten-second stream step
that took 14 to 18 s scaled to 9.5 to 10.2 s. The routine belongs to
the benchmark, so no change to scenkit moves it.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import sys
from time import perf_counter

#: The reference routine's time on the reference machine in a fast phase.
REFERENCE_S = 2.0e-4
#: Seconds between calibrations; each is the least of REPEATS timings.
EVERY = 0.1
REPEATS = 3
WARMUP = 30
#: A calibration is skipped this close to the recursion limit, so that it
#: cannot turn an operation's deep recursion into a RecursionError.
HEADROOM = 50


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def reference(n: int = 400) -> float:
    """Object, tuple, dict, float and call work, like scenkit's own."""
    index = {}
    acc = 0.0
    points = []
    for i in range(n):
        p = _Point(i * 0.5, -i)
        points.append(p)
        index[(i & 63, i % 7)] = p
        acc += p.x * 0.25 + abs(p.y)
    ordered = sorted(points, key=lambda q: q.y)
    return acc + len(index) + sum(q.x for q in ordered[::7])


def _depth(frame) -> int:
    depth = 0
    while frame is not None:
        frame = frame.f_back
        depth += 1
    return depth


class Clock:
    """Calibrations of the reference routine over one run.

    Creating a clock starts its timer; ``close`` stops it. Between the
    two, ``mark`` and ``since`` measure intervals and ``scale`` turns
    one into reference-speed seconds. Call ``scale`` for an interval
    that holds no calibration only after ``close``, which takes the
    calibrations after it that it may need.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        for _ in range(WARMUP):
            self._calibrate()
        self.samples.clear()
        self.stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()
        self._calibrate()

    def _on_alarm(self, signum, frame) -> None:
        if _depth(frame) < sys.getrecursionlimit() - HEADROOM:
            self._calibrate()

    def _calibrate(self) -> None:
        """Time the reference routine with the collector held off: its
        objects are all freed on return, so it leaves the collector's
        counts as it found them and moves no collection into or out of
        the operation it interrupts."""
        enter = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        best = math.inf
        for _ in range(REPEATS):
            t0 = perf_counter()
            reference()
            best = min(best, perf_counter() - t0)
        if collecting:
            gc.enable()
        self.samples.append(best)
        self.stolen += perf_counter() - enter

    def now(self) -> float:
        """perf_counter() without the time calibrations took."""
        return perf_counter() - self.stolen

    def mark(self) -> tuple[float, int]:
        return self.now(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, int, int]:
        """Seconds since ``mark``, and the range of calibrations taken
        meanwhile (samples[lo:hi])."""
        t, lo = mark
        return self.now() - t, lo, len(self.samples)

    def scale(self, lo: int, hi: int) -> float:
        """Reference-speed seconds per second of an interval whose
        calibrations are samples[lo:hi]."""
        if hi > lo:
            return REFERENCE_S * statistics.fmean(1 / c for c in self.samples[lo:hi])
        return REFERENCE_S / statistics.median(self.samples[max(0, lo - 2):lo + 2])
