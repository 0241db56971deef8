"""Blocking FIFO resources: the queueing building block of the simulator.

Every contended hardware element — a switch output port with its
two-word queue, a global-memory module, a cluster cache bank group — is
modelled as a :class:`Resource`: a FIFO server with a finite queue
measured in 64-bit words.  When the head-of-line packet finishes service
but the next hop's queue is full, the packet *blocks in place*, stalling
the resource (head-of-line blocking), which is the behaviour created by
the paper's "flow control between stages prevents queue overflow".

Latency growth under load therefore *emerges* from finite queues and
service rates; nothing in the experiment layer curve-fits delay values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Sequence, Union

from repro.core.engine import Engine, SimulationError
from repro.monitor.signals import NULL_SIGNAL
from repro.network.packet import Packet, PacketKind

_WRITE_REQ = PacketKind.WRITE_REQ

#: A hop is either another Resource or a terminal sink callback.
Hop = Union["Resource", Callable[[Packet], None]]


class Transit:
    """A packet's journey across an ordered route of hops.

    ``route[idx]`` is the hop currently holding the packet.  The final
    element may be a sink callable, which always accepts.
    """

    __slots__ = ("packet", "route", "idx", "enq_t", "svc_t")

    def __init__(self, packet: Packet, route: Sequence[Hop], idx: int = 0) -> None:
        self.packet = packet
        self.route = route
        self.idx = idx
        # occupancy edge times for the consolidated ``net.span`` record;
        # written only while that signal is monitored (never read by the
        # model itself, so they cannot perturb timing).
        self.enq_t = 0.0
        self.svc_t = 0.0


@dataclass
class ResourceStats:
    packets: int = 0
    words: int = 0
    busy_cycles: float = 0.0
    blocked_cycles: float = 0.0
    rejected_offers: int = 0


class Resource:
    """FIFO server with a finite word-granularity queue and backpressure.

    A packet is accepted whenever at least one word of queue space is
    free (cut-through: long packets may overhang a short queue, as words
    stream through the two-word hardware queues).  Service time is
    ``fixed_cycles + words / words_per_cycle``.
    """

    __slots__ = (
        "engine",
        "name",
        "capacity_words",
        "words_per_cycle",
        "fixed_cycles",
        "recovery_cycles",
        "_recovered_at",
        "stats",
        "_queue",
        "queued_words",
        "_serving",
        "_blocked_head",
        "_blocked_since",
        "_waiters",
        "depart_signal",
        "enqueue_signal",
        "dequeue_signal",
        "span_signal",
        "fault_hook",
        "_has_service_hook",
        "_has_complete_hook",
        "__weakref__",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        capacity_words: int,
        words_per_cycle: float = 1.0,
        fixed_cycles: float = 0.0,
        recovery_cycles: float = 0.0,
    ) -> None:
        if capacity_words < 1:
            raise ValueError("queue capacity must be at least one word")
        if words_per_cycle <= 0:
            raise ValueError("service rate must be positive")
        self.engine = engine
        self.name = name
        self.capacity_words = capacity_words
        self.words_per_cycle = words_per_cycle
        self.fixed_cycles = fixed_cycles
        #: dead time after a departure before the next service may start
        #: (e.g. DRAM bank recovery in a memory module).  Adds no latency
        #: to an isolated access but lowers sustained throughput.
        self.recovery_cycles = recovery_cycles
        self._recovered_at = 0.0
        self.stats = ResourceStats()
        self._queue: Deque[Transit] = deque()
        #: words in the queue now; read it, never assign it from outside.
        self.queued_words = 0
        self._serving = False
        self._blocked_head: Optional[Transit] = None
        self._blocked_since: float = 0.0
        self._waiters: Deque["Resource"] = deque()
        #: monitoring channels, re-pointed at real bus channels by the
        #: owning component at attach time; :data:`NULL_SIGNAL` (whose
        #: ``callbacks`` is permanently ``()``) until then, so every
        #: would-be emission is a single truthiness branch on a cached
        #: tuple — the zero-cost fast path — with no ``is not None``
        #: pre-check.
        #: ``depart_signal`` -> ``net.hop`` (a packet leaving the server),
        #: ``enqueue_signal`` / ``dequeue_signal`` -> ``net.enqueue`` /
        #: ``net.dequeue`` (queue-occupancy edges for the monitors),
        #: ``span_signal`` -> ``net.span``: ONE consolidated record per
        #: occupancy, emitted at departure with all three edge times, so
        #: a request tracer costs one callback per hop instead of three.
        self.depart_signal = NULL_SIGNAL
        self.enqueue_signal = NULL_SIGNAL
        self.dequeue_signal = NULL_SIGNAL
        self.span_signal = NULL_SIGNAL
        #: optional fault-injection site (see ``repro.faults``), set at
        #: injector attach time.  Same ``is not None`` fast path as the
        #: signals: an unarmed resource pays one branch per service.
        self.fault_hook = None
        # devirtualize the per-packet hooks: plain FIFO links (the vast
        # majority) take branch-only fast paths in _start_service/_finish.
        cls = type(self)
        self._has_service_hook = cls.service_cycles is not Resource.service_cycles
        self._has_complete_hook = (
            cls.on_service_complete is not Resource.on_service_complete
        )

    # -- admission ---------------------------------------------------------

    def has_space(self) -> bool:
        return self.queued_words < self.capacity_words

    def offer(self, transit: Transit) -> bool:
        """Try to accept ``transit``; returns False when the queue is
        full — the caller must block and retry on waiter notification."""
        if self.queued_words >= self.capacity_words:
            self.stats.rejected_offers += 1
            return False
        self._queue.append(transit)
        self.queued_words += transit.packet.words
        if self.span_signal.callbacks:
            # direct slot read: the property descriptor costs a frame,
            # and this stamp runs once per occupancy on traced runs.
            transit.enq_t = self.engine._now
        cbs = self.enqueue_signal.callbacks
        if cbs:
            # inlined emit (as net.span below): no Signal.emit frame
            pkt = transit.packet
            now = self.engine._now
            for cb in cbs:
                cb(self, pkt, now)
        if not self._serving and self._blocked_head is None:
            self._start_service(self._queue[0])
        return True

    def add_waiter(self, upstream: "Resource") -> None:
        if upstream not in self._waiters:
            self._waiters.append(upstream)

    # -- service -----------------------------------------------------------

    def service_cycles(self, packet: Packet) -> float:
        return self.fixed_cycles + packet.words / self.words_per_cycle

    def on_service_complete(self, transit: Transit) -> bool:
        """Hook called when a packet's service finishes, before handoff.

        Subclasses (memory modules) may transform ``transit.packet`` —
        adjusting :attr:`queued_words` for any size change — or consume
        the packet entirely by returning False.
        """
        return True

    def _start_service(self, transit: Transit) -> None:
        """Start serving ``transit`` (the queue head), holding the slot
        through any recovery window or fault stall first."""
        self._serving = True
        engine = self.engine
        if self.recovery_cycles and engine._now < self._recovered_at:
            # hold the slot through recovery, then start at its end.
            engine.schedule(self._recovered_at, self._start_service, transit)
            return
        hook = self.fault_hook
        if hook is not None:
            delay = hook.before_service(self, transit)
            if delay > 0.0:
                # fault stall: hold the head slot (still serving) and
                # re-arbitrate once the stall elapses.
                engine.schedule_after(delay, self._start_service, transit)
                return
        if self._has_service_hook:
            cycles = self.service_cycles(transit.packet)
        else:
            cycles = self.fixed_cycles + transit.packet.words / self.words_per_cycle
        self.stats.busy_cycles += cycles
        engine.schedule_after(cycles, self._finish, transit)

    def _finish(self, transit: Transit) -> None:
        if not self._queue or self._queue[0] is not transit:
            raise SimulationError(f"{self.name}: finished packet is not at head")
        self._serving = False
        if self.span_signal.callbacks:
            transit.svc_t = self.engine._now
        if self._has_complete_hook and not self.on_service_complete(transit):
            self._depart(transit, None)
            return
        self._try_handoff(transit)

    def _try_handoff(self, transit: Transit) -> None:
        """Hand the finished head to its next hop, or block in place
        while that hop's queue is full."""
        route = transit.route
        nxt_idx = transit.idx + 1
        nxt = route[nxt_idx] if nxt_idx < len(route) else None
        if isinstance(nxt, Resource) and nxt.queued_words >= nxt.capacity_words:
            if self._blocked_head is None:
                self._blocked_head = transit
                self._blocked_since = self.engine._now
            nxt.add_waiter(self)
            return
        self._depart(transit, nxt)

    def _depart(self, transit: Transit, nxt: Optional[Hop]) -> None:
        """Pop the head ``transit`` and pass it to ``nxt``: the next
        :class:`Resource`, a sink callable, or ``None`` when the packet
        ends here.  Then wake upstream waiters and start the next
        service."""
        queue = self._queue
        if queue.popleft() is not transit:
            raise SimulationError(f"{self.name}: departing packet is not at head")
        pkt = transit.packet
        words = pkt.words
        self.queued_words -= words
        st = self.stats
        st.packets += 1
        st.words += words
        now = self.engine._now
        if self.recovery_cycles:
            self._recovered_at = now + self.recovery_cycles
        if self._blocked_head is transit:
            st.blocked_cycles += now - self._blocked_since
            self._blocked_head = None
        cbs = self.dequeue_signal.callbacks
        if cbs:
            for cb in cbs:
                cb(self, pkt, now)
        cbs = self.depart_signal.callbacks
        if cbs:
            for cb in cbs:
                cb(self, pkt, now)
        cbs = self.span_signal.callbacks
        if cbs:
            # pre-packed record (see the net.span catalog entry): packet
            # fields extracted here because pooled packets mutate.  All
            # eight slots are atomic values, and a buffering subscriber
            # is ``list.extend`` itself, so the record tuple dies the
            # moment the inlined callback loop returns — no Python
            # frame per emission, and no surviving GC-tracked object to
            # swell collection pauses on long traced runs.  The packet's
            # ``trace`` mark gates the build: a sampled-out reference
            # costs exactly these two attribute loads per hop.
            if pkt.trace:
                rec = (self.name, pkt.request_id, pkt.is_reply,
                       pkt.kind is _WRITE_REQ,
                       self.fixed_cycles + words / self.words_per_cycle,
                       transit.enq_t, transit.svc_t, now)
                for cb in cbs:
                    cb(rec)
        if isinstance(nxt, Resource):
            transit.idx += 1
            if not nxt.offer(transit):
                raise SimulationError(f"{nxt.name} refused after reporting space")
        elif nxt is not None:
            nxt(pkt)
        # wake upstream waiters while space lasts; each retries its
        # blocked head (a departure clears it, a re-block re-queues).
        waiters = self._waiters
        while waiters and self.queued_words < self.capacity_words:
            upstream = waiters.popleft()
            blocked = upstream._blocked_head
            if blocked is not None:
                upstream._try_handoff(blocked)
        if not self._serving and self._blocked_head is None and queue:
            self._start_service(queue[0])

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Return to post-construction state: empty queue, zero stats,
        no blocking.  Part of the component-lifecycle contract."""
        self.stats = ResourceStats()
        self._queue.clear()
        self.queued_words = 0
        self._serving = False
        self._blocked_head = None
        self._blocked_since = 0.0
        self._waiters.clear()
        self._recovered_at = 0.0

    # -- introspection -----------------------------------------------------

    @property
    def queued_packets(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles this resource spent serving."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resource {self.name} q={self.queued_words}/{self.capacity_words}>"


def start_transit(packet: Packet, route: Sequence[Hop]) -> Transit:
    """Create a transit for ``packet`` over ``route`` and offer it to the
    first hop.  Raises if the first hop refuses — injection points must
    check :meth:`Resource.has_space` first or provide their own pacing."""
    if not route:
        raise SimulationError("route must not be empty")
    first = route[0]
    if not isinstance(first, Resource):
        raise SimulationError("route must start at a Resource")
    transit = Transit(packet=packet, route=route, idx=0)
    if not first.offer(transit):
        raise SimulationError(f"injection refused by {first.name}")
    return transit
