"""Host speed, sampled throughout a timed run.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts
by a third and more within seconds as other work on the host comes and
goes: the same repetition, at the same seed, in the same process, takes
anywhere from 2.4 s to 3.8 s on a 2-vCPU Xeon VM.  Host times are
therefore reported in *reference seconds*: the seconds the run would
have taken on a host where one pass of :func:`calibration_loop` takes
:data:`REFERENCE_LOOP_S`.

The loop is pure interpreter work of the kind the simulator does
(objects with slots, a heap, a dict, a generator).  :class:`SpeedSampler`
times one pass of it every :data:`INTERVAL_S` of a run, from a
``SIGALRM`` handler -- which CPython runs on the main thread, between
bytecodes -- so the samples cover the run itself rather than the moments
around it.  The time spent in the handler is left out of the run's time.
The samples change nothing the program computes.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Callable, List

#: Seconds one calibration pass takes on the reference host (a 2-vCPU
#: Xeon VM under CPython 3.11 at its fastest).
REFERENCE_LOOP_S = 0.6e-3
#: Seconds of the run between two samples (a pass takes ~3% of it).
INTERVAL_S = 0.03


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _count(n):
    for i in range(n):
        yield i


def calibration_loop() -> int:
    """A fixed amount of interpreter work (~0.6-0.9 ms)."""
    heap, table, total = [], {}, 0
    for i in range(600):
        item = _Item(i, i * 7 % 131)
        heapq.heappush(heap, (item.value, i))
        table[item.value] = table.get(item.value, 0) + item.key
    while heap:
        total += heapq.heappop(heap)[0]
    for i in _count(600):
        total += i
    return total


def time_loop(clock: Callable[[], float] = time.perf_counter) -> float:
    start = clock()
    calibration_loop()
    return clock() - start


def reference_seconds(seconds: float, samples: List[float]) -> float:
    """``seconds`` of host time at the speed ``samples`` (pass times,
    evenly spread over those seconds) show, in reference seconds.  The
    speed is averaged, not the pass time, so each stretch of the run is
    weighed by the work done in it."""
    return seconds * statistics.fmean(REFERENCE_LOOP_S / s for s in samples)


class SpeedSampler:
    """Times the ``with`` block and samples the host's speed during it.

    ``wall_s`` is the block's seconds on ``clock`` minus the handler's;
    ``ref_s`` is the same time in reference seconds.  There is a sample
    just before the block and just after it, so even a block shorter
    than the interval has a speed.
    """

    def __init__(self, interval_s: float = INTERVAL_S,
                 clock: Callable[[], float] = time.perf_counter):
        self.interval_s = interval_s
        self.clock = clock
        self.samples: List[float] = []
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._spent = 0.0
        self._busy = False
        self._previous = None
        self._start = 0.0

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = self.clock()
        self.samples.append(time_loop(self.clock))
        self._spent += self.clock() - start
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(time_loop(self.clock))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._start = self.clock()
        return self

    def __exit__(self, *exc) -> None:
        end = self.clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_loop(self.clock))
        self.wall_s = end - self._start - self._spent
        self.ref_s = reference_seconds(self.wall_s, self.samples)
