"""Host speed, sampled between the jobs of a run.

The shared hosts this benchmark runs on flip between a fast and a slow
state (about 1.6x apart) every few tenths of a second, and the share of
time spent slow drifts over tens of seconds (see README.md, "Noise").  A
raw host time therefore says as much about the other tenants as about
the simulator.  So the benchmark times a fixed pure-Python loop between
its jobs, for a fixed share of the time the jobs took, and scales each
host time by ``REFERENCE_S / mean loop time``: the time the work would
have taken on a host that runs the loop in ``REFERENCE_S``.  The mean,
not the median, because a job's time is itself a mean over the host's
fast and slow moments.

The loop does what the simulator's inner loops do (heap events, small
objects with slots, dict counters, closures, a generator) and imports
nothing from ``repro``.  A change to the simulator moves scaled times as
much as host times; a change of host state moves the loop and the jobs
alike.  Raw host seconds are recorded beside every scaled figure.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: mean loop time, in seconds, on the host the benchmark was defined on
#: (Intel Xeon, 2 vCPUs, Python 3.11.7).  Fixed: it only sets the scale.
REFERENCE_S = 0.0045

#: calibration time taken after a job, as a share of the job's own time.
SHARE = 0.05


class _Event:
    __slots__ = ("time", "port", "words")

    def __init__(self, time: float, port: int, words: int) -> None:
        self.time = time
        self.port = port
        self.words = words


def _consumer():
    total = 0
    while True:
        words = yield total
        total += words


def _loop() -> int:
    heap: list = []
    counts: dict = {}
    consumer = _consumer()
    next(consumer)

    def _account(event: _Event) -> None:
        counts[event.port] = counts.get(event.port, 0) + event.words

    for i in range(2500):
        event = _Event(float((i * 7919) % 1009), i % 32, 1 + i % 4)
        heapq.heappush(heap, (event.time, i, event))
    total = 0
    while heap:
        _t, _seq, event = heapq.heappop(heap)
        _account(event)
        total = consumer.send(event.words)
    return total + len(counts)


def sample_for(seconds: float, into: List[float]) -> None:
    """Time the loop for about ``seconds`` (at least twice), appending
    each timing to ``into``."""
    for _ in range(max(2, round(seconds / REFERENCE_S))):
        start = time.perf_counter()
        _loop()
        into.append(time.perf_counter() - start)


def sample_after(job_seconds: float, into: List[float]) -> None:
    """Sample for ``SHARE`` of the time a job took."""
    sample_for(SHARE * job_seconds, into)


def scale(samples: List[float]) -> float:
    """Reference seconds per host second, given a run's loop timings."""
    return REFERENCE_S / statistics.fmean(samples)
