"""Discrete-event simulation engine.

The simulator's native time unit is the CE instruction cycle.  Components
schedule callbacks at absolute cycle times; ties are broken in FIFO
scheduling order so simulations are fully deterministic.

Hot-path design
---------------

Events are *slot-based records*: plain lists ``[when, seq, callback,
args]``.  The record doubles as the **cancellation handle** —
:meth:`Engine.cancel` blanks the callback slot in place, so cancellation
is O(1) and cancelled slots are skipped (and reclaimed) when their turn
comes.  The ``seq`` slot is always 0: a record's place in its
timestamp's bucket *is* its scheduling order.

Executed records are recycled through a bounded **free list** instead
of being re-allocated per event: the drain pushes each dispatched
record (blanked of its callback and args) onto the free list and
``schedule`` / ``schedule_after`` refill from it, so steady-state
scheduling allocates nothing.  The cancellation contract is therefore
*until the event runs*: a handle whose event has executed is dead and
``cancel`` on it returns ``False`` (the record may since have been
recycled into a different pending event).

Callbacks take positional ``*args`` captured in the record, so hot
loops schedule *bound methods with arguments* instead of allocating a
fresh closure per event.

The pending set is a **bucket queue**, shaped by the machine being
simulated: Cedar's network is cycle-synchronous, so events cluster on
timestamps (tens of link and module services finish in one cycle).  A
dict maps each pending timestamp to the list of its records, and a heap
holds the *unique* timestamps.  Scheduling is one dict probe and an
append; the heap sees one push per new timestamp, not per event.
Bucket lists are in scheduling order for free, so a popped bucket is
the dispatch order with no sort.

The drain (:meth:`Engine.run`) is one loop over timestamps that pops a
whole bucket per iteration and dispatches it with one of two inner
loops, chosen once per run:

* **unchecked dispatch** — for unbounded runs with no caller watchdog.
  One callback per Python call and no per-event checks beyond
  :meth:`Engine.request_stop`; an armed pulse is visited only between
  timestamps, so it never observes a half-dispatched cycle;
* **checked dispatch** — for runs bounded by ``until``, ``max_events``
  or ``stop_when``, or supervised by a :class:`Watchdog`.  One callback
  per Python call, with the bounds, the predicate and the watchdog
  checked after every event (``until`` between timestamps).  An armed
  pulse is visited every ``every`` events, mid-bucket if need be.

Cancellation,
:meth:`Engine.request_stop` mid-bucket and the resume contract behave
the same under both: the unconsumed rest of a bucket goes back on the
queue, so a later run continues with no event lost, duplicated or
reordered.  Both loops call every callback the same way, so a run's
results do not depend on which loop dispatched it; the committed golden
outputs (``benchmarks/golden.py``) pin the simulated results of every
registered experiment.  Only the drain dispatches events: components
schedule through :meth:`Engine.schedule` / :meth:`Engine.schedule_after`
and never touch the queue's storage, whose layout is private to this
module.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

#: A scheduled event slot: ``[when, seq, callback, args]``.  ``callback``
#: is ``None`` once cancelled.  The list itself is the cancellation handle.
EventHandle = list

#: free-list depth cap: enough to absorb the steady-state churn of a
#: large machine without pinning unbounded memory after a burst.
_FREE_LIST_MAX = 8192

#: default pulse cadence (processed events between pulse-hook visits
#: when no caller watchdog supplies its own ``check_every``).
PULSE_CHECK_EVERY = 4096


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


def make_engine() -> "Engine":
    """The engine factory machine assembly (``SimContext``) builds
    through."""
    return Engine()


class WatchdogError(SimulationError):
    """Raised when a :class:`Watchdog` aborts a run.

    ``dump`` carries the engine's diagnostic state snapshot
    (:meth:`Engine.dump_state`) taken at the moment of the abort.
    """

    def __init__(self, message: str, dump: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.dump = dump or {}


class Watchdog:
    """Run supervisor: budgets and no-progress (livelock) detection.

    Attach to an engine with :meth:`Engine.attach_watchdog`; every
    ``check_every`` processed events the watchdog verifies:

    * **cycle budget** — simulated cycles consumed since arming stay
      within ``max_cycles``;
    * **event budget** — events processed since arming stay within
      ``max_events``;
    * **progress** — the ``progress`` fingerprint (any equality-
      comparable value; the caller supplies a callable describing real
      forward progress, e.g. packets delivered + programs finished)
      changes at least once every ``stall_checks`` consecutive checks.
      With no ``progress`` callable, the engine clock is the
      fingerprint: a frozen clock across a full stall window is the
      classic zero-delay event livelock.

    A violation raises :class:`WatchdogError` carrying a diagnostic
    state dump.  The watchdog is a pure observer — a run that stays
    within budget and keeps progressing is bit-identical with and
    without it (it only *reads* engine state).
    """

    __slots__ = (
        "max_cycles",
        "max_events",
        "progress",
        "check_every",
        "stall_checks",
        "on_check",
        "_cycles_at_arm",
        "_events_at_arm",
        "_since_check",
        "_last_fp",
        "_stall_count",
    )

    #: sentinel distinguishing "no fingerprint yet" from any real value.
    _UNSET = object()

    def __init__(
        self,
        max_cycles: Optional[float] = None,
        max_events: Optional[int] = None,
        progress: Optional[Callable[[], object]] = None,
        check_every: int = 8192,
        stall_checks: int = 8,
        on_check: Optional[Callable[["Engine"], None]] = None,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be at least one event")
        if stall_checks < 1:
            raise ValueError("stall_checks must be at least one check")
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.progress = progress
        self.check_every = check_every
        self.stall_checks = stall_checks
        #: optional cadence hook, called with the engine at every check
        #: before the budget tests — how heartbeat pulses piggyback on
        #: the watchdog's periodic visits without a second counter on
        #: the event loop.  Must only *read* engine state.
        self.on_check = on_check
        self._cycles_at_arm = 0.0
        self._events_at_arm = 0
        self._since_check = 0
        self._last_fp: object = Watchdog._UNSET
        self._stall_count = 0

    def _arm(self, engine: "Engine") -> None:
        self._cycles_at_arm = engine.now
        self._events_at_arm = engine.events_processed
        self._since_check = 0
        self._last_fp = Watchdog._UNSET
        self._stall_count = 0

    def _check(self, engine: "Engine") -> None:
        if self.on_check is not None:
            self.on_check(engine)
        cycles = engine.now - self._cycles_at_arm
        if self.max_cycles is not None and cycles > self.max_cycles:
            self._abort(
                engine,
                f"cycle budget exceeded: {cycles:.0f} > {self.max_cycles:.0f}",
            )
        events = engine.events_processed - self._events_at_arm
        if self.max_events is not None and events > self.max_events:
            self._abort(
                engine,
                f"event budget exceeded: {events} > {self.max_events}",
            )
        fp = self.progress() if self.progress is not None else engine.now
        if fp == self._last_fp:
            self._stall_count += 1
            if self._stall_count >= self.stall_checks:
                window = self.stall_checks * self.check_every
                self._abort(
                    engine,
                    f"no progress across {window} events "
                    f"(fingerprint frozen at {fp!r}); likely livelock",
                )
        else:
            self._last_fp = fp
            self._stall_count = 0

    def _abort(self, engine: "Engine", reason: str) -> None:
        raise WatchdogError(f"watchdog abort: {reason}", engine.dump_state())




class Engine:
    """A deterministic event-driven simulation kernel (see the module
    docstring for the bucket queue and the drain).

    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(5, lambda: hits.append(eng.now))
    >>> _ = eng.run()
    >>> hits
    [5]

    **Resume contract**: ``run(until=T)`` advances ``now`` to exactly
    ``T`` and leaves every event scheduled after ``T`` on the queue.  A
    subsequent ``run()`` (or ``run(until=T2)``) continues from the
    preserved queue with no events lost, duplicated, or reordered —
    bounded runs compose: ``run(until=a); run()`` processes the same
    events at the same times as a single unbounded ``run()``.
    """

    __slots__ = (
        "_buckets",
        "_ts_heap",
        "_free",
        "_now",
        "_events_processed",
        "_cancelled",
        "_stop_requested",
        "_run_wall_s",
        "_runs",
        "_watchdog",
        "_pulse",
        "_pulse_every",
        "_pulse_watchdog",
    )

    def __init__(self) -> None:
        #: pending timestamp -> list of event records in scheduling
        #: order.  Invariant: ``when`` is a key of ``_buckets`` iff
        #: ``when`` is in ``_ts_heap`` (exactly once) — maintained by
        #: scheduling (push on bucket creation only) and the drain (pop
        #: both together).
        self._buckets: Dict[float, List[list]] = {}
        self._ts_heap: List[float] = []
        #: recycled event records (blanked); schedule paths refill from
        #: here so steady-state scheduling allocates no new lists.
        self._free: List[list] = []
        self._now: float = 0.0
        self._events_processed = 0
        self._cancelled = 0
        self._stop_requested = False
        #: wall-clock seconds spent inside run loops (self-metrics).
        self._run_wall_s = 0.0
        self._runs = 0
        #: armed run supervisor; None (or the pulse-only supervisor)
        #: keeps unbounded runs on the unchecked loop.
        self._watchdog: Optional[Watchdog] = None
        #: armed pulse hook (heartbeats, metric timelines).
        self._pulse: Optional[Callable[["Engine"], None]] = None
        self._pulse_every = PULSE_CHECK_EVERY
        #: the internal pulse-only watchdog, when one is armed (so
        #: detach_watchdog can tell it apart from a caller's).
        self._pulse_watchdog: Optional[Watchdog] = None

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # -- scheduling into the bucket queue ----------------------------------

    def schedule(self, when: float, callback: Callable, *args) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when`` (>= now;
        NaN is refused).

        Returns the event's slot record, usable with :meth:`cancel`.
        """
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        free = self._free
        if free:
            record = free.pop()
            record[0] = when
            record[2] = callback
            record[3] = args
        else:
            record = [when, 0, callback, args]
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [record]
            _heappush(self._ts_heap, when)
        else:
            bucket.append(record)
        return record

    def schedule_after(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` cycles from now
        (``delay >= 0``; NaN is refused)."""
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay}: must be >= 0")
        when = self._now + delay
        free = self._free
        if free:
            record = free.pop()
            record[0] = when
            record[2] = callback
            record[3] = args
        else:
            record = [when, 0, callback, args]
        buckets = self._buckets
        bucket = buckets.get(when)
        if bucket is None:
            buckets[when] = [record]
            _heappush(self._ts_heap, when)
        else:
            bucket.append(record)
        return record

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event by its handle.

        O(1): the slot is blanked in place and reclaimed lazily when its
        turn comes.  Returns ``False`` if the event already ran or was
        already cancelled.
        """
        if handle[2] is None:
            return False
        handle[2] = None
        handle[3] = ()
        self._cancelled += 1
        return True

    def request_stop(self) -> None:
        """Ask the running loop to stop after the current event.

        Cheaper than a ``stop_when`` predicate (a flag check instead of
        a callback per event); used by completion-counting drivers like
        :meth:`~repro.core.machine.CedarMachine.run_programs`.
        """
        self._stop_requested = True

    def _requeue(self, when: float, batch: List[list], i: int) -> None:
        """Reinstate ``batch[i:]`` as the front of the ``when`` bucket —
        the resume contract after a stop mid-bucket or an exception
        escaping a callback.  Events scheduled *at* ``when`` during the
        bucket's dispatch already re-created the bucket; the unconsumed
        remainder goes in front of them."""
        rest = batch[i:]
        buckets = self._buckets
        existing = buckets.get(when)
        if existing is None:
            buckets[when] = rest
            _heappush(self._ts_heap, when)
        else:
            rest.extend(existing)
            buckets[when] = rest

    # -- the drain ----------------------------------------------------------

    def run_until_idle(self) -> float:
        """Drain the queue with no bound or predicate; returns the final
        time.  The same as ``run()``."""
        return self.run()

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run until the queue drains (or a bound is hit); return final time.

        ``until`` bounds simulated time, ``max_events`` bounds work, and
        ``stop_when`` is polled after every event for early termination.
        Honors :meth:`request_stop` and skips cancelled slots.

        A run with no bound and no caller watchdog dispatches each
        timestamp's bucket through the unchecked inner loop, with
        an armed pulse visited between timestamps (``events_processed``
        flushed first).  Any bound or a caller watchdog selects the
        checked inner loop, one callback per Python call with every
        check after every event; a pulse is then visited every
        ``every`` events, or on a caller watchdog's check cadence.

        After an ``until``-bounded return, ``now == until`` and the
        queue is intact; calling ``run()`` again *continues correctly*
        (see the class docstring's resume contract).
        """
        wd = self._watchdog
        unchecked = (
            until is None
            and max_events is None
            and stop_when is None
            and wd is self._pulse_watchdog
        )
        pulse = self._pulse if unchecked else None
        self._stop_requested = False
        buckets = self._buckets
        ts_heap = self._ts_heap
        pop_ts = _heappop
        free = self._free
        free_max = _FREE_LIST_MAX
        pulse_every = self._pulse_every
        next_pulse = pulse_every
        # the unchecked loop counts in ``processed`` and flushes it into
        # ``_events_processed`` at pulse visits and on exit; the checked
        # loop keeps ``_events_processed`` current after every event.
        processed = 0
        flushed = 0
        base = self._events_processed
        started = _perf_counter()
        try:
            while ts_heap:
                when = pop_ts(ts_heap)
                if until is not None and when > until:
                    _heappush(ts_heap, when)
                    self._now = until
                    break
                batch = buckets.pop(when)
                self._now = when
                n = len(batch)
                i = 0
                try:
                    if unchecked:
                        while i < n:
                            record = batch[i]
                            # consume before dispatch: a raising callback
                            # is spent, so the requeue below reinstates
                            # only ``batch[i:]``.
                            i += 1
                            cb = record[2]
                            if cb is None:
                                self._cancelled -= 1
                                if len(free) < free_max:
                                    free.append(record)
                                continue
                            args = record[3]
                            record[2] = None
                            record[3] = ()
                            if args:
                                cb(*args)
                            else:
                                cb()
                            if len(free) < free_max:
                                free.append(record)
                            processed += 1
                            if self._stop_requested:
                                break
                    else:
                        while i < n:
                            record = batch[i]
                            i += 1
                            cb = record[2]
                            if cb is None:
                                self._cancelled -= 1
                                if len(free) < free_max:
                                    free.append(record)
                                continue
                            args = record[3]
                            record[2] = None
                            record[3] = ()
                            if args:
                                cb(*args)
                            else:
                                cb()
                            if len(free) < free_max:
                                free.append(record)
                            self._events_processed += 1
                            if wd is not None:
                                wd._since_check += 1
                                if wd._since_check >= wd.check_every:
                                    wd._since_check = 0
                                    wd._check(self)
                            if self._stop_requested:
                                break
                            if stop_when is not None and stop_when():
                                self._stop_requested = True
                                break
                            if (
                                max_events is not None
                                and self._events_processed - base >= max_events
                            ):
                                raise SimulationError(
                                    f"exceeded max_events={max_events}; likely livelock"
                                )
                finally:
                    # a stop, a watchdog abort or a raising callback: the
                    # unconsumed remainder goes back on the queue so
                    # resumed runs see it untouched.
                    if i < n:
                        self._requeue(when, batch, i)
                if self._stop_requested:
                    break
                if pulse is not None and processed >= next_pulse:
                    self._events_processed += processed - flushed
                    flushed = processed
                    next_pulse = processed + pulse_every
                    pulse(self)
        finally:
            self._events_processed += processed - flushed
            self._run_wall_s += _perf_counter() - started
            self._runs += 1
        return self._now

    # -- supervision -------------------------------------------------------

    def attach_watchdog(self, watchdog: Watchdog) -> Watchdog:
        """Arm ``watchdog`` over subsequent runs (budgets and progress
        count from this moment).  Runs take the checked inner loop until
        :meth:`detach_watchdog`.  An armed pulse survives: it rides the
        new watchdog's check cadence (via ``on_check``) while the
        watchdog is armed and re-arms on its own when it detaches.
        """
        watchdog._arm(self)
        if self._pulse is not None and watchdog.on_check is None:
            watchdog.on_check = self._pulse
        self._watchdog = watchdog
        self._pulse_watchdog = None
        return watchdog

    def detach_watchdog(self) -> Optional[Watchdog]:
        """Disarm the current watchdog (restoring the unchecked loop for
        unbounded runs) and return it, or None when none was armed (a
        pulse-only supervisor does not count)."""
        watchdog = self._watchdog
        self._watchdog = None
        if watchdog is not None and watchdog is self._pulse_watchdog:
            self._pulse_watchdog = None
            return None
        if watchdog is not None and watchdog.on_check is self._pulse:
            watchdog.on_check = None
        if self._pulse is not None:
            self._arm_pulse_watchdog()
        return watchdog

    def attach_pulse(
        self,
        pulse: Callable[["Engine"], None],
        every: int = PULSE_CHECK_EVERY,
    ) -> Callable[["Engine"], None]:
        """Arm a periodic read-only hook: ``pulse(engine)`` roughly every
        ``every`` processed events (worker heartbeats and metric
        timelines use this).  Unbounded runs visit it between
        timestamps.  Bounded runs visit it every ``every`` events
        through a budget-free pulse-only supervisor; when a caller arms
        a real watchdog the pulse rides its checks instead.  The hook
        must only read engine state, so pulsed runs stay bit-identical
        with unpulsed ones."""
        self._pulse = pulse
        self._pulse_every = every
        if self._watchdog is not None:
            if self._watchdog.on_check is None:
                self._watchdog.on_check = pulse
        else:
            self._arm_pulse_watchdog()
        return pulse

    def detach_pulse(self) -> Optional[Callable[["Engine"], None]]:
        """Disarm the pulse hook and return it, or None."""
        pulse = self._pulse
        self._pulse = None
        if self._watchdog is not None:
            if self._watchdog is self._pulse_watchdog:
                self._watchdog = None
            elif self._watchdog.on_check is pulse:
                self._watchdog.on_check = None
        self._pulse_watchdog = None
        return pulse

    def _arm_pulse_watchdog(self) -> None:
        # budget-free supervisor whose only job is the cadence visit; a
        # fresh-counter progress fingerprint always changes, so it can
        # never declare a livelock on its own.
        watchdog = Watchdog(
            check_every=self._pulse_every,
            progress=itertools.count().__next__,
            on_check=self._pulse,
        )
        watchdog._arm(self)
        self._watchdog = watchdog
        self._pulse_watchdog = watchdog

    # -- introspection -----------------------------------------------------

    def dump_state(self, limit: int = 10) -> Dict[str, object]:
        """Diagnostic snapshot for abort reports: the self-metrics plus
        the next ``limit`` live queued events with callback names —
        enough to see *what* a stuck simulation keeps rescheduling."""
        buckets = self._buckets
        live = (
            {
                "when": when,
                "callback": getattr(record[2], "__qualname__", repr(record[2])),
            }
            for when in sorted(buckets)
            for record in buckets[when]
            if record[2] is not None
        )
        state = self.self_metrics()
        state["upcoming"] = list(itertools.islice(live, limit))
        return state

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(map(len, self._buckets.values())) - self._cancelled

    @property
    def run_wall_s(self) -> float:
        """Wall-clock seconds spent inside run loops since reset."""
        return self._run_wall_s

    def self_metrics(self) -> Dict[str, object]:
        """The engine's own observability counters: dispatch volume,
        realized events/sec, and queue depths.  This is the native data
        source for the BENCH trajectory and per-run reports."""
        wall = self._run_wall_s
        return {
            "events_processed": self._events_processed,
            "events_per_sec": round(self._events_processed / wall, 1) if wall > 0 else 0.0,
            "run_wall_s": round(wall, 6),
            "runs": self._runs,
            "sim_cycles": self._now,
            "pending": self.pending(),
            "queue_depth_timestamps": len(self._ts_heap),
            "cancelled_pending": self._cancelled,
        }

    def reset(self) -> None:
        """Return to time zero with an empty queue, in place — holders
        of an engine reference (components) stay valid."""
        self._buckets.clear()
        self._ts_heap.clear()
        self._free.clear()
        self._now = 0.0
        self._events_processed = 0
        self._cancelled = 0
        self._stop_requested = False
        self._run_wall_s = 0.0
        self._runs = 0
        self._watchdog = None
        self._pulse = None
        self._pulse_watchdog = None
