"""Request-level causal tracing: per-reference spans on the signal bus.

Every global reference a CE or PFU issues already carries a stable
``request_id`` (shared by the request packet and its reply).  A
:class:`SpanCollector` subscribes *broadcast* to the architectural
signals a reference crosses on its way out and back —

* ``req.birth`` at the issue site (PFU word issue, CE demand load,
  store, block transfer, sync instruction),
* ``net.span`` at every network link and memory module — ONE
  consolidated record per queue occupancy, emitted at departure with
  all three edge times (queue entry, service completion, departure —
  splitting each hop into queue-wait / service / head-of-line-blocked
  segments with a single callback instead of three),
* ``gmem.service`` at the memory module,
* ``sync.op`` for synchronization outcomes,
* ``fault.*`` for retry/stall annotations,
* ``req.deliver`` back at the originating port —

and stitches them into one **span tree per request**: an end-to-end
span decomposed into forward-network, memory (wait / service / block)
and reverse-network phases, with one child span per hop.

The phases are a *segmentation of the request's timeline* — forward
ends where memory-queue entry begins, memory-block ends where the
reverse network begins — so their sum reconciles with the end-to-end
latency exactly, not approximately.

Zero-cost contract: all publishers guard their emissions on subscriber
count, so with no collector attached no payload is ever built and runs
are bit-identical (``tests/test_zero_cost.py`` pins this).  Collectors
only observe: the one piece of tracing state a packet carries, its
``trace`` mark, gates record building and never timing.

Sampling
--------

``SpanCollector(every=N)`` traces **every Nth request end to end**.  A
request is either fully traced — all its events recorded, its phase
sums reconciling exactly, as with full tracing — or not at all: its
packet's ``trace`` mark is cleared at birth, so no ``net.span`` record
is ever built for it, it is never tracked, and the drain discards its
other events with those of every other unknown id.  Selection uses the
collector's own **birth counter**, not the process-global
``request_id``: the k-th reference born after attach is traced iff
``k % every == 0``.  Birth order is part of the deterministic event
order, so two identical runs trace the same references, whatever ran
earlier in the process.  The same counter, kept on each span as its
``ordinal``, breaks latency ties in the exemplar reservoir.

Percentiles of a 1-in-N sample estimate the population's; tail
attribution (p99 of a 16x-thinned population) needs proportionally
longer runs for the same confidence.  The spans document records
``sampled_every`` and ``sampled_out``.

Because the mark lives *on the packet*, a sampling collector thins the
hop records of every other collector on the same run to its sampled
population (birth, delivery and memory events are unaffected).  Attach
one collector per run — the experiment runner already does — or give
collectors sharing a run the same ``every``.

Streaming
---------

A buffered collector keeps every stitched span until read time —
exact, but O(requests) memory, so a week-long soak either hits
``max_requests`` (silent truncation, surfaced as ``dropped``) or grows
without bound.  ``SpanCollector(stream=True)`` folds each request the
moment it completes — end-to-end latency into per-origin
:class:`~repro.monitor.sketch.QuantileSketch` banks, the five phases
into per-phase sketches, per-stage cycles into exact running totals
plus per-stage sketches, the span itself into an
:class:`~repro.monitor.sketch.ExemplarReservoir` (K slowest completes,
K most recent incompletes) — and then releases it.  Resident state is
O(sketch buckets + K + in-flight), independent of how many requests
the run drives; at the in-flight cap the oldest span is evicted
instead of the new birth dropped.  The per-span reconciliation check
survives as a counter checked at every fold, and :func:`validate_spans`
rejects a streaming document with any violation.

The trade-offs, by design: quantiles carry the sketch's relative-error
bound instead of being histogram-exact over a bounded range (means,
maxima, counts and per-stage averages stay exact); tail-cohort
attribution runs over the reservoir — the K slowest spans at or above
the sketch's tail threshold, not the full cohort; and the spans
document stores sketch state plus exemplars, not every span.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gmemory.sync import format_sync_op
from repro.monitor.histogram import Histogrammer
from repro.monitor.sketch import (
    DEFAULT_RELATIVE_ERROR,
    ExemplarReservoir,
    QuantileSketch,
)

#: exported spans-JSON schema version (see :func:`validate_spans`).
SPANS_VERSION = 1

#: the streaming spans-JSON schema version (``"mode": "streaming"``
#: documents, produced by a ``stream=True`` :class:`SpanCollector`).
STREAM_SPANS_VERSION = 2

#: acceptance bound: phase sums reconcile with end-to-end latency to
#: within one cycle per request.
RECONCILE_TOLERANCE = 1.0

#: the five phases of a global reference, in timeline order.
PHASES = ("forward", "memory_wait", "memory_service", "memory_block", "reverse")


def _stage_of(resource_name: str) -> str:
    """``"fwd.s0[3]"`` -> ``"fwd.s0"``; ``"gm[4]"`` -> ``"gmem"``."""
    if resource_name.startswith("gm["):
        return "gmem"
    return resource_name.split("[", 1)[0]


class HopSpan:
    """One network hop of a request: its queue entry, service end and
    departure on one link, plus the link's nominal service time (rate
    parameters captured at enqueue, so queue-wait = time at the head
    minus service — including any fault stall or recovery hold)."""

    __slots__ = ("resource", "stage", "is_reply", "enqueue", "svc",
                 "service_end", "depart")

    def __init__(self, resource: str, stage: str, is_reply: bool,
                 enqueue: float, svc: float) -> None:
        self.resource = resource
        self.stage = stage
        self.is_reply = is_reply
        self.enqueue = enqueue
        self.svc = svc
        self.service_end: Optional[float] = None
        self.depart: Optional[float] = None

    def segments(self) -> Optional[Tuple[float, float, float]]:
        """(queue_wait, service, blocked) cycles, or None while the hop
        is still in flight."""
        if self.service_end is None or self.depart is None:
            return None
        wait = max(0.0, self.service_end - self.svc - self.enqueue)
        blocked = max(0.0, self.depart - self.service_end)
        return wait, self.svc, blocked

    def to_dict(self) -> dict:
        out = {
            "resource": self.resource,
            "stage": self.stage,
            "direction": "reverse" if self.is_reply else "forward",
            "enqueue": self.enqueue,
            "service_end": self.service_end,
            "depart": self.depart,
        }
        segments = self.segments()
        if segments is not None:
            out["queue_wait"], out["service"], out["blocked"] = segments
        return out


class RequestSpan:
    """The stitched span tree of one global reference."""

    __slots__ = (
        "request_id", "origin", "port", "address", "kind", "words", "birth",
        "hops", "mem_module", "mem_enqueue", "mem_cycles", "mem_service_end",
        "mem_depart", "sync_success", "sync_op", "faults", "end", "complete",
        "ordinal",
    )

    def __init__(self, request_id: int, origin: str, port: int, address: int,
                 kind: str, words: int, birth: float,
                 ordinal: int = 0) -> None:
        self.request_id = request_id
        self.origin = origin
        self.port = port
        self.address = address
        self.kind = kind
        self.words = words
        self.birth = birth
        self.hops: List[HopSpan] = []
        self.mem_module: Optional[int] = None
        self.mem_enqueue: Optional[float] = None
        self.mem_cycles: Optional[float] = None
        self.mem_service_end: Optional[float] = None
        self.mem_depart: Optional[float] = None
        self.sync_success: Optional[bool] = None
        self.sync_op: Optional[str] = None
        self.faults: List[dict] = []
        self.end: Optional[float] = None
        self.complete = False
        #: the k of "k-th reference born since the collector attached":
        #: unlike ``request_id`` (a process-wide counter) it depends only
        #: on the run, so ties broken on it reproduce across processes.
        self.ordinal = ordinal

    # -- derived latency ---------------------------------------------------

    @property
    def latency(self) -> Optional[float]:
        return None if self.end is None else self.end - self.birth

    def phases(self) -> Optional[Dict[str, float]]:
        """Per-phase latency decomposition, or None while incomplete.

        Defined as a segmentation of [birth, end] at the memory-module
        event times, so ``sum(phases.values()) == latency`` exactly.
        """
        if self.end is None or self.mem_enqueue is None:
            return None
        if self.mem_service_end is None or self.mem_cycles is None:
            return None
        depart = self.mem_depart if self.mem_depart is not None else self.end
        return {
            "forward": self.mem_enqueue - self.birth,
            "memory_wait": (self.mem_service_end - self.mem_cycles)
            - self.mem_enqueue,
            "memory_service": self.mem_cycles,
            "memory_block": depart - self.mem_service_end,
            "reverse": self.end - depart,
        }

    def to_dict(self) -> dict:
        out = {
            "id": self.request_id,
            "origin": self.origin,
            "port": self.port,
            "address": self.address,
            "kind": self.kind,
            "words": self.words,
            "birth": self.birth,
            "end": self.end,
            "latency": self.latency,
            "complete": self.complete,
            "hops": [hop.to_dict() for hop in self.hops],
        }
        phases = self.phases()
        if phases is not None:
            out["phases"] = phases
        if self.mem_module is not None:
            out["memory"] = {
                "module": self.mem_module,
                "enqueue": self.mem_enqueue,
                "service_cycles": self.mem_cycles,
                "service_end": self.mem_service_end,
                "depart": self.mem_depart,
            }
        if self.sync_success is not None:
            out["sync"] = {"success": self.sync_success, "op": self.sync_op}
        if self.faults:
            out["faults"] = list(self.faults)
        return out


#: event-record tags for the deferred stitching buffer.  ``net.span``
#: records carry no tag — they arrive pre-packed from the emission site
#: with the :class:`~repro.network.resource.Resource` in slot 0, so the
#: drain loop distinguishes them by ``type(ev[0]) is not int``.
_EV_GSVC = 1
_EV_BIRTH = 2
_EV_DELIVER = 3
_EV_SYNC = 4
_EV_FAULT = 5
_EV_SYNC_TIMEOUT = 6


class SpanCollector:
    """Broadcast bus subscriber stitching per-request span trees.

    Attach before the machine assembles (via a context observer) or to
    an already-built machine's bus; only references born *after* attach
    are traced — events for unknown request ids (cluster-local traffic,
    pre-attach births, sampled-out references) are ignored.

    ``every`` traces the k-th reference born since attach iff
    ``k % every == 0`` (``1`` traces all of them).  ``stream`` decides
    what happens to a finished span: buffered (``False``) keeps it;
    streaming (``True``) folds it into quantile sketches
    (``relative_error``) and an exemplar reservoir of ``exemplars``
    spans (ties broken by a hash seeded with ``seed``), then releases
    it.  ``max_requests`` bounds the tracked set: at the cap a buffered
    collector counts new births into :attr:`dropped` (keeping the
    earliest population, which exact analyses rely on); a streaming
    one evicts its oldest in-flight span into the reservoir instead and
    counts it into :attr:`evicted`.

    Two-layer design
    ----------------

    Stitching is *deferred*: the signal handlers that run inside the
    simulation loop only append flat tuples to an event buffer —
    extracting the packet fields they need **at event time**, because
    packets are pooled and mutate (a request becomes its reply in
    place, then is recycled into an unrelated reference).  The actual
    span assembly — dict lookups, :class:`HopSpan` construction —
    replays the buffer in temporal order on first read
    (:attr:`requests`, :meth:`complete_spans`, :meth:`spans`, ...),
    outside the measured run loop.  Results are identical to eager
    stitching; only *when* the work happens changes.  A streaming
    collector also drains whenever the buffer holds
    :attr:`DRAIN_THRESHOLD` slots (checked on birth and delivery), so
    its buffer is bounded too.

    Hop data rides the consolidated ``net.span`` signal — one emission
    per queue occupancy, at departure, carrying all three edge times —
    instead of the ``net.enqueue``/``net.service``/``net.hop`` triple,
    so a traced hop costs one subscriber callback rather than three
    (the point signals stay for the utilization monitors, which need
    the edges *at their times*).  Occupancies still in flight when the
    run ends have not departed and therefore produce no hop record.
    """

    SIGNALS = (
        "req.birth",
        "req.deliver",
        "net.span",
        "gmem.service",
        "sync.op",
        "fault.transient",
        "fault.ecc",
        "fault.sync_timeout",
        "fault.reroute",
    )

    DEFAULT_MAX_REQUESTS = 200_000

    #: default exemplar reservoir size (slowest K + most recent K).
    DEFAULT_EXEMPLARS = 64

    #: a streaming collector drains its event buffer whenever it holds
    #: this many flat slots.
    DRAIN_THRESHOLD = 65_536

    def __init__(self, max_requests: int = DEFAULT_MAX_REQUESTS,
                 every: int = 1, stream: bool = False,
                 relative_error: float = DEFAULT_RELATIVE_ERROR,
                 exemplars: int = DEFAULT_EXEMPLARS, seed: int = 0) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be positive")
        if every < 1:
            raise ValueError("sampling interval must be at least 1")
        self.max_requests = max_requests
        self.every = every
        self.stream = stream
        self._requests: Dict[int, RequestSpan] = {}
        self._dropped = 0
        self._completed = 0
        self._events: List[tuple] = []
        self._open_syncs: Dict[int, List[int]] = {}
        self._subscriptions: List[tuple] = []
        #: resource name -> its :func:`_stage_of` stage, memoised by ``_drain``.
        self._stages: Dict[str, str] = {}
        #: references born since attach (the deterministic birth clock).
        self.births_seen = 0
        #: references skipped by sampling (disjoint from ``dropped``).
        self.sampled_out = 0
        #: in-flight spans evicted at the cap (streaming only).
        self.evicted = 0
        #: completed spans with no memory timeline: no analysis reads
        #: them, so a streaming collector releases them unfolded.
        self.completed_without_phases = 0
        self._drain_at = self.DRAIN_THRESHOLD if stream else math.inf
        self.relative_error = relative_error
        #: the folded latency state and exemplar reservoir (streaming
        #: only; a buffered collector keeps the spans themselves).
        self.state: Optional[_LatencyState] = None
        self.exemplars: Optional[ExemplarReservoir] = None
        if stream:
            self.state = _LatencyState(
                lambda: QuantileSketch(relative_error), stage_sketches=True
            )
            self.exemplars = ExemplarReservoir(k=exemplars, seed=seed)

    # -- attachment --------------------------------------------------------

    def attach(self, bus) -> "SpanCollector":
        for name in self.SIGNALS:
            if bus.declared(name):
                if name == "net.span":
                    handler = self._span_subscriber()
                else:
                    handler = getattr(self, "_on_" + name.replace(".", "_"))
                self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    # -- hot-path signal handlers (record only; no stitching) --------------

    def _on_req_birth(self, packet, origin: str, time: float) -> None:
        k = self.births_seen
        self.births_seen = k + 1
        if k % self.every:
            self.sampled_out += 1
            # clear the packet's trace mark: every resource on the
            # route now skips the net.span record build for this
            # reference — a sampled-out hop costs two attribute loads.
            packet.trace = False
            return
        events = self._events
        events.append((
            _EV_BIRTH, packet.request_id, origin, packet.src,
            packet.address, packet.kind.name, packet.words, time, k,
        ))
        if len(events) >= self._drain_at:
            self._drain()

    def _on_req_deliver(self, packet, time: float) -> None:
        events = self._events
        events.append((_EV_DELIVER, packet.request_id, time))
        if len(events) >= self._drain_at:
            self._drain()

    def _span_subscriber(self):
        """The ``net.span`` callback.  Records arrive pre-packed from
        the emission site (packet fields already extracted — see the
        catalog entry), so the collector buffers them with the list's
        own C-level ``extend``: a traced hop costs no Python frame at
        all, and flattening the eight atomic slots into the buffer lets
        the record tuple die immediately — tracing adds no surviving
        GC-tracked objects, keeping collection pauses out of the
        measured loop.  Sampled-out references never reach it: their
        cleared trace mark stops the emission sites building a
        record."""
        return self._events.extend

    def _on_gmem_service(self, module: int, packet, time: float,
                         cycles: float) -> None:
        self._events.append(
            (_EV_GSVC, packet.request_id, module, cycles, time)
        )

    def _on_sync_op(self, module: int, address: int, time: float, packet,
                    success: bool) -> None:
        self._events.append((
            _EV_SYNC, packet.request_id, success, packet.meta.get("sync"),
            time,
        ))

    def _on_fault_transient(self, resource, packet, time: float,
                            backoff_cycles: float) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "transient", "resource": resource.name,
            "time": time, "cycles": backoff_cycles,
        }))

    def _on_fault_ecc(self, module: int, packet, time: float,
                      stall_cycles: float) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "ecc", "module": module,
            "time": time, "cycles": stall_cycles,
        }))

    def _on_fault_reroute(self, network: str, packet, time: float) -> None:
        self._events.append((_EV_FAULT, packet.request_id, {
            "type": "reroute", "network": network, "time": time,
        }))

    def _on_fault_sync_timeout(self, module: int, address: int, time: float,
                               penalty_cycles: float) -> None:
        self._events.append(
            (_EV_SYNC_TIMEOUT, module, address, time, penalty_cycles)
        )

    # -- deferred stitching ------------------------------------------------

    def _drain(self) -> None:
        """Replay buffered events through the stitching logic.  Events
        are buffered in emission order, which is temporal order, so the
        replayed state transitions match eager stitching exactly."""
        buffer = self._events
        if not buffer:
            return
        # snapshot and clear IN PLACE: the bus holds the buffer's bound
        # ``extend`` as the net.span subscriber, so the list object must
        # stay the same for the collector's lifetime.
        events = buffer[:]
        del buffer[:]
        requests = self._requests
        stages = self._stages
        i = 0
        n = len(events)
        while i < n:
            ev = events[i]
            if ev.__class__ is str:
                # a flat eight-slot net.span record (see the catalog
                # entry); slot 0 is the resource name — the only string
                # that ever lands in the buffer at top level, so the
                # type check is the dispatch.
                (name, rid, is_reply, is_write, svc,
                 enqueue, service_end, depart) = events[i:i + 8]
                i += 8
                span = requests.get(rid)
                if span is None or span.complete:
                    continue
                if name.startswith("gm["):
                    span.mem_enqueue = enqueue
                    span.mem_depart = depart
                    # stores are terminal at the module: no reply
                    # travels back
                    if is_write:
                        self._finish(span, depart)
                    continue
                stage = stages.get(name)
                if stage is None:
                    stage = stages[name] = _stage_of(name)
                hop = HopSpan(name, stage, is_reply, enqueue, svc)
                hop.service_end = service_end
                hop.depart = depart
                span.hops.append(hop)
                continue
            i += 1
            tag = ev[0]
            if tag == _EV_GSVC:
                _, rid, module, cycles, time = ev
                span = requests.get(rid)
                if span is not None:
                    span.mem_module = module
                    span.mem_cycles = cycles
                    span.mem_service_end = time
            elif tag == _EV_BIRTH:
                _, rid, origin, port, address, kind, words, time, k = ev
                if len(requests) >= self.max_requests and not self._make_room():
                    self._dropped += 1
                    continue
                requests[rid] = RequestSpan(
                    rid, origin, port, address, kind, words, time, k
                )
                if origin == "sync":
                    self._open_syncs.setdefault(address, []).append(rid)
            elif tag == _EV_DELIVER:
                _, rid, time = ev
                span = requests.get(rid)
                if span is not None and not span.complete:
                    self._finish(span, time)
            elif tag == _EV_SYNC:
                _, rid, success, operation, time = ev
                span = requests.get(rid)
                if span is not None:
                    span.sync_success = success
                    span.sync_op = format_sync_op(operation)
            elif tag == _EV_FAULT:
                _, rid, fault = ev
                span = requests.get(rid)
                if span is not None:
                    span.faults.append(fault)
            else:  # _EV_SYNC_TIMEOUT
                _, module, address, time, penalty = ev
                # no packet on this signal: charge the oldest in-flight
                # sync to the same address (the one being retried).
                for rid in self._open_syncs.get(address, ()):
                    span = requests.get(rid)
                    if span is not None and not span.complete:
                        span.faults.append({
                            "type": "sync_timeout", "module": module,
                            "time": time, "cycles": penalty,
                        })
                        break

    # -- stitching helpers -------------------------------------------------

    def _make_room(self) -> bool:
        """Called when a birth arrives at the ``max_requests`` cap.
        Return True after freeing a tracked slot to admit the new
        request: a streaming collector evicts its oldest in-flight span
        into the reservoir's incomplete side (tree-buffer semantics:
        recent history wins); a buffered one never frees."""
        if not self.stream:
            return False
        requests = self._requests
        span = requests.pop(next(iter(requests)))
        if span.origin == "sync":
            self._close_sync(span)
        self.exemplars.offer_incomplete(span)
        self.evicted += 1
        return True

    def _close_sync(self, span: RequestSpan) -> None:
        """Drop a finished or evicted sync span from the open-sync
        index, and the address's list once it empties."""
        ids = self._open_syncs.get(span.address)
        if ids and span.request_id in ids:
            ids.remove(span.request_id)
            if not ids:
                del self._open_syncs[span.address]

    def _finish(self, span: RequestSpan, time: float) -> None:
        span.end = time
        span.complete = True
        self._completed += 1
        if span.origin == "sync":
            self._close_sync(span)
        if self.stream:
            phases = span.phases()
            if phases is None:
                self.completed_without_phases += 1
            else:
                self.state.fold(span, phases)
                self.exemplars.offer_complete(span)
            del self._requests[span.request_id]

    # -- results (every accessor drains first) -----------------------------

    @property
    def requests(self) -> Dict[int, RequestSpan]:
        """Tracked spans keyed by request id (drains the buffer): every
        span for a buffered collector, the in-flight ones for a
        streaming one."""
        self._drain()
        return self._requests

    @property
    def completed(self) -> int:
        self._drain()
        return self._completed

    @property
    def dropped(self) -> int:
        self._drain()
        return self._dropped

    @property
    def pending_events(self) -> int:
        """Buffered slots not yet stitched (introspection/tests).
        ``net.span`` records occupy eight flat slots each; every other
        event is one tuple — so this counts buffer entries, not
        events."""
        return len(self._events)

    def complete_spans(self) -> List[RequestSpan]:
        """The retained complete spans: all of them in birth order for a
        buffered collector, the reservoir's slowest K (slowest first)
        for a streaming one."""
        self._drain()
        if self.stream:
            return self.exemplars.slowest()
        return [s for s in self._requests.values() if s.complete]

    def incomplete_spans(self) -> List[RequestSpan]:
        """Requests still in flight — a simulation that drains fully
        should leave none; orphans point at lost replies."""
        self._drain()
        return [s for s in self._requests.values() if not s.complete]

    def tracing_footprint(self) -> int:
        """Resident traced-state size in *items* (tracked spans,
        buffered event slots, and for streaming sketch buckets and
        reservoir entries) — the quantity the memory gate asserts is
        flat in request count."""
        items = len(self._requests) + len(self._events)
        if self.stream:
            state = self.state
            groups = (state.latency, state.phases, state.stage_sketches)
            items += len(self.exemplars) + sum(
                s.bucket_count() for group in groups for s in group.values()
            )
        return items

    def _incomplete_exemplars(self) -> List[RequestSpan]:
        """The K most recent incomplete spans: cap-evicted ones held in
        the reservoir merged with the current in-flight tail.  A
        non-mutating snapshot — an in-flight span that completes after
        this call folds normally."""
        merged = {
            span.request_id: span
            for span in self.exemplars.incompletes()
            if not span.complete
        }
        for span in self._requests.values():
            if not span.complete:
                merged[span.request_id] = span
        ordered = sorted(
            merged.values(), key=lambda s: (s.birth, s.request_id),
            reverse=True,
        )
        return ordered[:self.exemplars.k]

    def spans(self) -> dict:
        """The JSON-serializable spans document, checked by
        :func:`validate_spans`: version 1 (every span inline) for a
        buffered collector, version 2 (sketch state plus exemplars) for
        a streaming one."""
        self._drain()
        if self.stream:
            doc = self._streaming_doc()
        else:
            ordered = sorted(self._requests.values(), key=lambda s: s.birth)
            doc = {
                "version": SPANS_VERSION,
                "complete": self._completed,
                "incomplete": len(self._requests) - self._completed,
                "dropped": self._dropped,
                "requests": [span.to_dict() for span in ordered],
            }
        if self.every > 1:
            doc["sampled_every"] = self.every
            doc["sampled_out"] = self.sampled_out
        return doc

    def _streaming_doc(self) -> dict:
        state = self.state
        incomplete = [
            span for span in self._requests.values() if not span.complete
        ]
        return {
            "version": STREAM_SPANS_VERSION,
            "mode": "streaming",
            "complete": self._completed,
            "incomplete": len(incomplete) + self.evicted,
            "dropped": self._dropped,
            "evicted": self.evicted,
            "completed_without_phases": self.completed_without_phases,
            "relative_error": self.relative_error,
            "sketches": {
                "latency": {
                    name: sketch.to_dict()
                    for name, sketch in sorted(state.latency.items())
                },
                "phases": {
                    phase: state.phases[phase].to_dict() for phase in PHASES
                },
                "stages": {
                    stage: state.stage_sketches[stage].to_dict()
                    for stage in sorted(state.stage_sketches)
                },
            },
            "stage_totals": {
                stage: {
                    "queue_wait": entry[0], "service": entry[1],
                    "blocked": entry[2], "traversals": entry[3],
                }
                for stage, entry in sorted(state.stage_totals.items())
            },
            "reconciliation": {
                "checked": state.checked,
                "violations": state.violations,
                "worst": state.worst,
            },
            "exemplars": {
                "slowest": [s.to_dict() for s in self.exemplars.slowest()],
                "incomplete": [
                    s.to_dict() for s in self._incomplete_exemplars()
                ],
            },
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


# ---------------------------------------------------------------------------
# latency analysis

#: histogram bins behind the buffered quantiles.
HISTOGRAM_BINS = 2048


class _ExactDistribution(list):
    """Every value of one series, in fold order — the buffered side of
    the distribution protocol :class:`QuantileSketch` answers for
    streaming.  Count, sum, mean and max are exact; quantiles run
    through a :class:`Histogrammer` over ``[0, max]`` (the paper's 64K
    hardware counters) with within-bin interpolation."""

    __slots__ = ()

    #: a C-level append: folding a value costs no Python frame.
    record = list.append

    @property
    def count(self) -> int:
        return len(self)

    @property
    def sum(self) -> float:
        return sum(self)

    @property
    def max(self) -> float:
        return max(self)

    def mean(self) -> float:
        return sum(self) / len(self)

    def _histogram(self) -> Histogrammer:
        hi = max(max(self), 1e-9)
        hist = Histogrammer(0.0, hi * (1.0 + 1e-6), bins=HISTOGRAM_BINS)
        for value in self:
            hist.record(value)
        return hist

    def quantile(self, q: float) -> float:
        return self._histogram().percentile(q)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return self._histogram().quantiles(qs)


class _LatencyState:
    """What a latency analysis reads, folded one completed span at a
    time: end-to-end latency per origin (plus ``"all"``) and per phase
    in ``new_distribution()`` objects, exact per-stage
    ``[queue_wait, service, blocked, traversals]`` totals, and the
    reconciliation invariant (phase sums vs end-to-end latency).
    ``stage_sketches`` adds a per-stage distribution of cycles per
    traversal (the streaming spans document carries it)."""

    def __init__(self, new_distribution, stage_sketches: bool = False) -> None:
        self.new_distribution = new_distribution
        self.latency = {"all": new_distribution()}
        self.phases = {phase: new_distribution() for phase in PHASES}
        self.stage_totals: Dict[str, List[float]] = {}
        self.stage_sketches: Optional[dict] = {} if stage_sketches else None
        self.checked = 0
        self.violations = 0
        self.worst = 0.0

    def fold(self, span: RequestSpan, phases: Dict[str, float]) -> None:
        latency = span.latency
        self.latency["all"].record(latency)
        origin = self.latency.get(span.origin)
        if origin is None:
            origin = self.latency[span.origin] = self.new_distribution()
        origin.record(latency)
        for phase, value in phases.items():
            self.phases[phase].record(value)
        totals = self.stage_totals
        sketches = self.stage_sketches
        for hop in span.hops:
            segments = hop.segments()
            if segments is None:
                continue
            wait, service, blocked = segments
            entry = totals.get(hop.stage)
            if entry is None:
                entry = totals[hop.stage] = [0.0, 0.0, 0.0, 0]
                if sketches is not None:
                    sketches[hop.stage] = self.new_distribution()
            entry[0] += wait
            entry[1] += service
            entry[2] += blocked
            entry[3] += 1
            if sketches is not None:
                sketches[hop.stage].record(wait + service + blocked)
        entry = totals.get("gmem")
        if entry is None:
            entry = totals["gmem"] = [0.0, 0.0, 0.0, 0]
            if sketches is not None:
                sketches["gmem"] = self.new_distribution()
        entry[0] += phases["memory_wait"]
        entry[1] += phases["memory_service"]
        entry[2] += phases["memory_block"]
        entry[3] += 1
        if sketches is not None:
            sketches["gmem"].record(
                phases["memory_wait"] + phases["memory_service"]
                + phases["memory_block"]
            )
        # the exact reconciliation invariant, checked at fold time
        drift = abs(sum(phases.values()) - latency)
        self.checked += 1
        if drift > RECONCILE_TOLERANCE:
            self.violations += 1
        if drift > self.worst:
            self.worst = drift

    def merge(self, other: "_LatencyState") -> None:
        """Add ``other``'s folds: distributions merge, totals add."""
        for mine, theirs in ((self.latency, other.latency),
                             (self.phases, other.phases)):
            for name, distribution in theirs.items():
                if name in mine:
                    mine[name].merge(distribution)
                else:
                    mine[name] = distribution.copy()
        for stage, entry in other.stage_totals.items():
            totals = self.stage_totals.setdefault(stage, [0.0, 0.0, 0.0, 0])
            for i in range(4):
                totals[i] += entry[i]
        self.checked += other.checked
        self.violations += other.violations
        self.worst = max(self.worst, other.worst)


class LatencyAnalysis:
    """Latency decomposition, percentiles and bottleneck attribution
    over one or more collectors of one mode.

    Both modes read one :class:`_LatencyState`.  A buffered analysis
    folds the retained spans, in birth order, into exact value lists
    and takes quantiles from a :class:`Histogrammer`; a streaming one
    merges the sketches its collectors folded at completion, so its
    quantiles carry the sketch's relative-error bound.  Means, shares,
    stage averages and the reconciliation check are exact in both.
    ``spans`` holds the retained complete spans the tail cohort,
    bottleneck attribution and waterfalls read: every one for
    buffered, the exemplar reservoirs' slowest (slowest first) for
    streaming.
    """

    QUANTILES = (0.5, 0.9, 0.95, 0.99)

    def __init__(self, state: _LatencyState, spans: Sequence[RequestSpan],
                 stream: bool = False, dropped: int = 0,
                 evicted: int = 0) -> None:
        self.state = state
        self.spans = list(spans)
        self.stream = stream
        #: births the collectors refused at their cap — the analyzed
        #: population is silently truncated when this is non-zero, so
        #: renderers surface it next to the quantile tables.
        self.dropped = dropped
        self.evicted = evicted

    @classmethod
    def from_collectors(cls, collectors) -> "LatencyAnalysis":
        collectors = list(collectors)
        if not collectors:
            raise ValueError("no collectors to analyze")
        stream = collectors[0].stream
        if stream:
            relative_error = collectors[0].relative_error
            state = _LatencyState(lambda: QuantileSketch(relative_error))
            for collector in collectors:
                collector._drain()
                state.merge(collector.state)
            spans = sorted(
                (s for c in collectors for s in c.complete_spans()),
                key=lambda s: s.latency, reverse=True,
            )
        else:
            state = _LatencyState(_ExactDistribution)
            spans = []
            for collector in collectors:
                for span in collector.complete_spans():
                    phases = span.phases()
                    if phases is not None:
                        state.fold(span, phases)
                        spans.append(span)
        return cls(
            state, spans, stream=stream,
            dropped=sum(c.dropped for c in collectors),
            evicted=sum(c.evicted for c in collectors),
        )

    @property
    def requests(self) -> int:
        """Phased complete requests in the analyzed population."""
        return self.state.latency["all"].count

    def _row(self, distribution) -> dict:
        p50, p90, p95, p99 = distribution.quantiles(self.QUANTILES)
        return {
            "count": distribution.count,
            "mean": distribution.mean(),
            "p50": p50, "p90": p90, "p95": p95, "p99": p99,
            "max": distribution.max,
        }

    # -- decompositions ----------------------------------------------------

    def end_to_end(self) -> Dict[str, dict]:
        """Latency statistics per origin class plus ``"all"``."""
        latency = self.state.latency
        out = {
            origin: self._row(distribution)
            for origin, distribution in sorted(latency.items())
            if origin != "all" and distribution.count
        }
        if latency["all"].count:
            out["all"] = self._row(latency["all"])
        return out

    def phase_decomposition(self) -> Dict[str, dict]:
        """Statistics for each of the five phases, with each phase's
        share of total (sum over requests) end-to-end latency."""
        total = self.state.latency["all"].sum or 1.0
        out = {}
        for phase in PHASES:
            distribution = self.state.phases[phase]
            if not distribution.count:
                continue
            row = self._row(distribution)
            row["share"] = distribution.sum / total
            out[phase] = row
        return out

    def stage_decomposition(self) -> Dict[str, dict]:
        """Queue-wait / service / blocked cycles per network stage (and
        the memory modules), averaged per traversal, with each stage's
        share of total end-to-end latency."""
        total = self.state.latency["all"].sum or 1.0
        out = {}
        for stage, entry in sorted(self.state.stage_totals.items()):
            wait, service, blocked, count = entry
            if not count:
                continue
            out[stage] = {
                "traversals": count,
                "queue_wait": wait / count,
                "service": service / count,
                "blocked": blocked / count,
                "share": (wait + service + blocked) / total,
            }
        return out

    # -- bottleneck attribution --------------------------------------------

    def tail_cohort(self, q: float = 0.95) -> List[RequestSpan]:
        """Retained requests at or above the ``q`` end-to-end
        percentile (for streaming, the reservoir's slice of the
        cohort)."""
        if not self.spans:
            return []
        threshold = self.state.latency["all"].quantile(q)
        return [s for s in self.spans if s.latency >= threshold]

    def bottleneck_attribution(self, q: float = 0.95) -> List[dict]:
        """Which stage the tail waits on: per-stage share of the
        ``q``-cohort's summed latency, worst first.  The headline
        reading is "<stage> contributes N% of p95 latency"."""
        cohort = self.tail_cohort(q)
        if not cohort:
            return []
        acc: Dict[str, float] = {}
        total = 0.0
        for span in cohort:
            total += span.latency
            for hop in span.hops:
                segments = hop.segments()
                if segments is None:
                    continue
                acc[hop.stage] = acc.get(hop.stage, 0.0) + sum(segments)
            phases = span.phases()
            acc["gmem"] = acc.get("gmem", 0.0) + (
                phases["memory_wait"] + phases["memory_service"]
                + phases["memory_block"]
            )
        total = total or 1.0
        ranked = [
            {"stage": stage, "cycles": cycles, "share": cycles / total}
            for stage, cycles in acc.items()
        ]
        ranked.sort(key=lambda row: row["share"], reverse=True)
        return ranked

    def slowest(self, n: Optional[int] = 5) -> List[RequestSpan]:
        """The ``n`` slowest retained requests (waterfall exemplars)."""
        return sorted(self.spans, key=lambda s: s.latency, reverse=True)[:n]

    def quantile_curve(self, qs: Sequence[float]) -> List[float]:
        """End-to-end latency at each quantile in ``qs`` (what the
        distribution chart renders)."""
        return self.state.latency["all"].quantiles(qs)

    # -- integrity ---------------------------------------------------------

    def reconciliation_error(self) -> float:
        """Worst |sum(phases) - end-to-end| across requests; the phases
        are a timeline segmentation, so this is floating-point noise —
        the acceptance bound is one cycle per request."""
        return self.state.worst

    def summary(self) -> dict:
        """The compact dict embedded in run reports."""
        mode = {"mode": "streaming"} if self.stream else {}
        if not self.requests:
            return {"requests": 0, **mode}
        out = {**mode, "requests": self.requests, "dropped": self.dropped}
        if self.stream:
            out["evicted"] = self.evicted
        attribution = self.bottleneck_attribution()
        out.update(
            end_to_end=self.end_to_end(),
            phases=self.phase_decomposition(),
            bottleneck=attribution[0] if attribution else None,
            reconciliation_error=self.reconciliation_error(),
        )
        if self.stream:
            out["sketches"] = {
                "latency": {
                    name: sketch.to_dict()
                    for name, sketch in sorted(self.state.latency.items())
                },
            }
        return out


# ---------------------------------------------------------------------------
# spans-JSON validation (the CI artifact check, sibling of
# validate_chrome_trace)

_REQUIRED_REQUEST_KEYS = ("id", "origin", "birth", "complete", "hops")
_REQUIRED_HOP_KEYS = ("resource", "stage", "direction", "enqueue")


def validate_spans(doc: dict) -> Tuple[int, int]:
    """Check a spans document against the schema essentials.

    Accepts both the buffered schema (version 1: every span inline) and
    the streaming schema (version 2, ``"mode": "streaming"``: sketches
    plus exemplars).  Returns ``(n_requests, n_complete)``; raises
    ``ValueError`` on malformation, including any complete request
    whose phase sums do not reconcile with its end-to-end latency.
    """
    if isinstance(doc, dict) and doc.get("mode") == "streaming":
        return _validate_streaming_spans(doc)
    if not isinstance(doc, dict) or "requests" not in doc:
        raise ValueError("spans must be an object with a requests array")
    if doc.get("version") != SPANS_VERSION:
        raise ValueError(f"unsupported spans version: {doc.get('version')!r}")
    requests = doc["requests"]
    if not isinstance(requests, list):
        raise ValueError("requests must be an array")
    for key in ("complete", "incomplete", "dropped"):
        if not isinstance(doc.get(key), int):
            raise ValueError(f"spans missing integer {key!r} count")
    n_complete = 0
    for request in requests:
        if _validate_request_dict(request):
            n_complete += 1
    if n_complete != doc["complete"]:
        raise ValueError(
            f"complete count {doc['complete']} != {n_complete} complete requests"
        )
    return len(requests), n_complete


def _validate_request_dict(request) -> bool:
    """Schema-check one request record; True when it is complete."""
    if not isinstance(request, dict):
        raise ValueError(f"request is not an object: {request!r}")
    for key in _REQUIRED_REQUEST_KEYS:
        if key not in request:
            raise ValueError(f"request missing {key!r}: {request!r}")
    for hop in request["hops"]:
        for key in _REQUIRED_HOP_KEYS:
            if key not in hop:
                raise ValueError(f"hop missing {key!r}: {hop!r}")
    if not request["complete"]:
        return False
    if request.get("latency") is None:
        raise ValueError(f"complete request lacks latency: {request!r}")
    phases = request.get("phases")
    if phases is not None:
        missing = [p for p in PHASES if p not in phases]
        if missing:
            raise ValueError(f"phases missing {missing}: {request!r}")
        drift = abs(sum(phases.values()) - request["latency"])
        if drift > RECONCILE_TOLERANCE:
            raise ValueError(
                f"request {request['id']}: phases sum to "
                f"{sum(phases.values()):.3f} but latency is "
                f"{request['latency']:.3f} (drift {drift:.3f})"
            )
    return True


def _validate_streaming_spans(doc: dict) -> Tuple[int, int]:
    """The version-2 streaming schema: bounded sketch state plus the
    exemplar reservoir instead of an inline span per request."""
    if doc.get("version") != STREAM_SPANS_VERSION:
        raise ValueError(
            f"unsupported streaming spans version: {doc.get('version')!r}"
        )
    for key in ("complete", "incomplete", "dropped", "evicted",
                "completed_without_phases"):
        if not isinstance(doc.get(key), int):
            raise ValueError(f"streaming spans missing integer {key!r} count")
    sketches = doc.get("sketches")
    if not isinstance(sketches, dict) or "latency" not in sketches:
        raise ValueError("streaming spans missing latency sketches")
    # every serialized sketch must round-trip (this also pins the
    # sketch schema version)
    for group in sketches.values():
        for state in group.values():
            QuantileSketch.from_dict(state)
    phased = doc["complete"] - doc["completed_without_phases"]
    all_latency = sketches["latency"].get("all")
    if phased > 0:
        if all_latency is None:
            raise ValueError("streaming spans lack the 'all' latency sketch")
        if all_latency["count"] != phased:
            raise ValueError(
                f"latency sketch count {all_latency['count']} != "
                f"{phased} phased complete requests"
            )
    reconciliation = doc.get("reconciliation")
    if not isinstance(reconciliation, dict):
        raise ValueError("streaming spans missing reconciliation counters")
    for key in ("checked", "violations", "worst"):
        if key not in reconciliation:
            raise ValueError(f"reconciliation missing {key!r}")
    if reconciliation["violations"]:
        raise ValueError(
            f"{reconciliation['violations']} requests drifted past the "
            f"reconciliation tolerance (worst {reconciliation['worst']:.3f})"
        )
    exemplars = doc.get("exemplars")
    if not isinstance(exemplars, dict):
        raise ValueError("streaming spans missing exemplars")
    for request in exemplars.get("slowest", ()):
        if not _validate_request_dict(request):
            raise ValueError(f"incomplete span in slowest exemplars: {request!r}")
    for request in exemplars.get("incomplete", ()):
        if _validate_request_dict(request):
            raise ValueError(f"complete span in incomplete exemplars: {request!r}")
    return doc["complete"] + doc["incomplete"], doc["complete"]


def validate_spans_file(path) -> Tuple[int, int]:
    """Load ``path`` and validate it; see :func:`validate_spans`."""
    with open(path) as fh:
        return validate_spans(json.load(fh))


def merge_span_docs(docs: Sequence[dict]) -> dict:
    """Merge spans documents of one schema (one per machine) into one
    valid document.  Counters add.  Version 1 concatenates the request
    lists (request ids are process-wide unique).  Version 2 merges the
    sketches bucket-wise, adds the stage totals and reconciliation
    counters, and re-ranks the exemplar lists, truncated to the largest
    constituent reservoir."""
    docs = list(docs)
    if not docs:
        raise ValueError("no documents to merge")
    if len(docs) == 1:
        return docs[0]
    streaming = docs[0].get("mode") == "streaming"
    # version 2 merges nested state in place: deep copy, JSON types only
    out = json.loads(json.dumps(docs[0])) if streaming else dict(docs[0])
    counters = ["complete", "incomplete", "dropped"]
    if streaming:
        counters += ["evicted", "completed_without_phases"]
    for doc in docs[1:]:
        for field in counters:
            out[field] += doc[field]
    if not streaming:
        out["requests"] = [r for doc in docs for r in doc["requests"]]
        return out
    sketches = {
        group: {
            name: QuantileSketch.from_dict(payload)
            for name, payload in out["sketches"][group].items()
        }
        for group in ("latency", "phases", "stages")
    }
    k = max(len(d["exemplars"]["slowest"]) for d in docs) or 1
    for doc in docs[1:]:
        for group, mine in sketches.items():
            for name, payload in doc["sketches"][group].items():
                sketch = QuantileSketch.from_dict(payload)
                if name in mine:
                    mine[name].merge(sketch)
                else:
                    mine[name] = sketch
        for stage, entry in doc["stage_totals"].items():
            mine = out["stage_totals"].setdefault(
                stage,
                {"queue_wait": 0.0, "service": 0.0, "blocked": 0.0,
                 "traversals": 0},
            )
            for field in ("queue_wait", "service", "blocked", "traversals"):
                mine[field] += entry[field]
        rec = doc["reconciliation"]
        out["reconciliation"]["checked"] += rec["checked"]
        out["reconciliation"]["violations"] += rec["violations"]
        out["reconciliation"]["worst"] = max(
            out["reconciliation"]["worst"], rec["worst"]
        )
        out["exemplars"]["slowest"].extend(doc["exemplars"]["slowest"])
        out["exemplars"]["incomplete"].extend(doc["exemplars"]["incomplete"])
    out["sketches"] = {
        group: {name: s.to_dict() for name, s in sorted(mine.items())}
        for group, mine in sketches.items()
    }
    out["exemplars"]["slowest"].sort(key=lambda s: s["latency"], reverse=True)
    del out["exemplars"]["slowest"][k:]
    out["exemplars"]["incomplete"].sort(key=lambda s: s["birth"], reverse=True)
    del out["exemplars"]["incomplete"][k:]
    return out
