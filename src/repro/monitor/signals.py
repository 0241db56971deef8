"""Typed signal bus: the wiring layer between hardware and monitors.

The paper's methodology instruments a *running* machine with external
hardware (event tracers, histogrammers, the prefetch probe) "without
perturbing it".  The signal bus reproduces that decoupling in software:
components **publish** named signals at architectural events and
probes/tracers/histogrammers **subscribe** — the machine model never
references a monitor.

Zero-cost fast path
-------------------

Publishers hold a :class:`Signal` channel (cached as a bound local at
attach time) and guard every emission on its pre-snapshotted
``callbacks`` tuple::

    sig = self._sig_request
    if sig.callbacks:            # () while nobody subscribes
        sig.emit(index, now)

``callbacks`` is rebuilt only when a subscription is added or removed
(:meth:`Signal.add_subscriber` / :meth:`Signal.remove_subscriber` are
the *only* mutation points), so an unmonitored emission site is one
attribute-chain load and one truthiness branch — no method call, no
dict lookup, and no payload construction.  ``emit`` iterates the same
immutable tuple, so a monitored emission allocates no per-call
snapshot either.  The hottest sites (a ``Resource``'s queue edges and
departures, a memory module's service) loop over ``callbacks``
themselves, which saves the ``emit`` frame per event.  Un-monitored simulations therefore pay (effectively)
nothing, and cycle counts are bit-identical with and without
monitoring because signals only observe.

Publishers whose channel may not be wired yet (components constructed
outside a :class:`~repro.core.context.SimContext`) default their
channel attributes to :data:`NULL_SIGNAL` — a permanently
subscriber-less channel — so emission sites stay a single branch
instead of an ``is not None`` pair.

Channels and keys
-----------------

Signals are *typed*: every name must be declared (the architectural
catalog below, or :meth:`SignalBus.declare`) with its payload field
names.  A signal name fans out into per-key channels — ``("pfu.request",
key=7)`` is CE port 7's request channel — so a probe monitoring one
port never runs, or filters, callbacks for the other 31.  Subscribing
with ``key=None`` attaches to every current *and future* channel of the
name (broadcast), which is how machine-wide tracers listen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

#: Architectural signals every Cedar machine publishes.  Field names
#: document the positional payload of ``emit``.
SIGNAL_CATALOG: Dict[str, Tuple[str, ...]] = {
    # prefetch unit (per-CE-port channels)
    "pfu.arm": ("port", "time"),
    "pfu.request": ("port", "word_index", "time"),
    "pfu.deliver": ("port", "word_index", "time"),
    "pfu.suspend": ("port", "time"),
    # network (broadcast channel per network name)
    "net.hop": ("resource", "packet", "time"),
    # queue occupancy: a packet entering / leaving a resource's queue
    # (keyed like ``net.hop``; emitted by every queueing Resource that a
    # component wires up, including memory modules and cluster banks)
    "net.enqueue": ("resource", "packet", "time"),
    "net.dequeue": ("resource", "packet", "time"),
    # one consolidated record per queue occupancy, emitted at departure
    # with all three edge times.  Unlike every other signal, the payload
    # is ONE pre-packed eight-slot tuple —
    #   (resource_name, request_id, is_reply, is_write, service_cycles,
    #    enqueue, service_end, depart)
    # — every slot an atomic value, with the packet fields already
    # extracted (packets are pooled and mutate, so they must be read at
    # event time anyway).  A subscriber that just buffers records can
    # therefore be ``list.extend`` itself: a traced hop costs a tuple
    # build and a C-level flat append, no Python frame — and because
    # the record tuple dies immediately, tracing adds no net GC-tracked
    # allocations (surviving per-event tuples would otherwise drag
    # collection pauses into the measured loop).  The request-tracing
    # layer subscribes to this instead of the enqueue/service/hop
    # point-signal triple (keyed like net.hop)
    "net.span": ("record",),
    # global memory (per-module channels); ``cycles`` is the service time
    "gmem.service": ("module", "packet", "time", "cycles"),
    "sync.op": ("module", "address", "time", "packet", "success"),
    # request lifecycle (per-CE-port channels): a global reference being
    # born at its issue site (``origin`` is "prefetch"/"demand"/"block"/
    # "store"/"sync") and a reply being delivered back at its port.  The
    # packet's ``request_id`` — shared by request and reply — is the
    # span identity the SpanCollector stitches on.
    "req.birth": ("packet", "origin", "time"),
    "req.deliver": ("packet", "time"),
    # cluster-local shared resources (per-cluster channels)
    "cluster.access": ("resource", "packet", "time"),
    # CE lifecycle
    "ce.done": ("port", "time"),
    # fault injection (un-keyed channels; see repro.faults)
    "fault.transient": ("resource", "packet", "time", "backoff_cycles"),
    "fault.port_down": ("resource", "time", "until"),
    "fault.ecc": ("module", "packet", "time", "stall_cycles"),
    "fault.sync_timeout": ("module", "address", "time", "penalty_cycles"),
    "fault.reroute": ("network", "packet", "time"),
}


@dataclass(frozen=True)
class Subscription:
    """Handle returned by ``subscribe``; pass to ``unsubscribe``."""

    name: str
    key: Optional[Hashable]
    callback: Callable


class Signal:
    """One named (and optionally keyed) channel of a :class:`SignalBus`.

    :attr:`callbacks` is the publisher fast path: an immutable tuple of
    the current subscribers, rebuilt only on subscribe/unsubscribe.
    Truthiness mirrors it, keeping the older ``if sig:`` idiom working.
    """

    __slots__ = ("name", "key", "fields", "callbacks", "_subscribers")

    def __init__(
        self, name: str, key: Optional[Hashable], fields: Tuple[str, ...]
    ) -> None:
        self.name = name
        self.key = key
        self.fields = fields
        self._subscribers: List[Callable] = []
        #: pre-snapshotted subscriber tuple; ``()`` while unmonitored.
        #: Publishers guard on ``sig.callbacks`` and ``emit`` iterates
        #: it, so the per-emit snapshot allocation is gone.
        self.callbacks: Tuple[Callable, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.callbacks)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- the single invalidation point -----------------------------------------

    def add_subscriber(self, callback: Callable) -> None:
        """Attach ``callback`` and refresh the :attr:`callbacks`
        snapshot.  Every subscription path (keyed, un-keyed, broadcast
        mirroring) funnels through here — it is the one place the
        cached emission state changes."""
        self._subscribers.append(callback)
        self.callbacks = tuple(self._subscribers)

    def remove_subscriber(self, callback: Callable) -> bool:
        """Detach ``callback`` (if present) and refresh the snapshot."""
        if callback not in self._subscribers:
            return False
        self._subscribers.remove(callback)
        self.callbacks = tuple(self._subscribers)
        return True

    def emit(self, *args) -> None:
        """Deliver ``args`` to every subscriber (snapshot semantics:
        subscribing or unsubscribing *during* an emit affects the next
        emit, not the one in flight — the tuple in flight is immutable)."""
        for callback in self.callbacks:
            callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        key = "" if self.key is None else f"[{self.key}]"
        return f"<Signal {self.name}{key} subs={len(self._subscribers)}>"


#: Permanently-quiescent channel publishers use as their default before
#: attach: ``NULL_SIGNAL.callbacks`` is always ``()``, so an unwired
#: emission site takes the same single-branch fast path as a wired but
#: unmonitored one.  Subscribing to it is a bug and raises.
class _NullSignal(Signal):
    __slots__ = ()

    def add_subscriber(self, callback: Callable) -> None:
        raise RuntimeError("cannot subscribe to NULL_SIGNAL")


NULL_SIGNAL = _NullSignal("null", None, ())


class SignalBus:
    """Registry of named signal channels with declared payloads.

    >>> bus = SignalBus()
    >>> seen = []
    >>> sub = bus.subscribe("pfu.request", lambda port, i, t: seen.append(i), key=0)
    >>> sig = bus.signal("pfu.request", key=0)
    >>> if sig: sig.emit(0, 3, 100.0)
    >>> seen
    [3]
    >>> bus.unsubscribe(sub)
    >>> bool(sig)
    False
    """

    def __init__(self, strict: bool = True) -> None:
        #: names -> payload fields; seeded with the architectural catalog.
        self._declared: Dict[str, Tuple[str, ...]] = dict(SIGNAL_CATALOG)
        self._channels: Dict[Tuple[str, Optional[Hashable]], Signal] = {}
        #: per-name broadcast subscribers, mirrored into keyed channels.
        self._broadcast: Dict[str, List[Callable]] = {}
        self.strict = strict

    # -- declaration -----------------------------------------------------------

    def declare(self, name: str, fields: Tuple[str, ...]) -> None:
        """Declare a new signal name and its payload field names."""
        existing = self._declared.get(name)
        if existing is not None and existing != tuple(fields):
            raise ValueError(
                f"signal {name!r} already declared with fields {existing}"
            )
        self._declared[name] = tuple(fields)

    def declared(self, name: str) -> bool:
        return name in self._declared

    def fields(self, name: str) -> Tuple[str, ...]:
        self._check_name(name)
        return self._declared[name]

    # -- channels --------------------------------------------------------------

    def signal(self, name: str, key: Optional[Hashable] = None) -> Signal:
        """The channel for ``(name, key)``; created on first use.

        Publishers call this once at attach time and cache the result —
        channel identity is stable for the bus's lifetime.
        """
        self._check_name(name)
        channel = self._channels.get((name, key))
        if channel is None:
            channel = Signal(name, key, self._declared[name])
            # keyed channels inherit the name's broadcast subscribers
            if key is not None:
                for callback in self._broadcast.get(name, ()):
                    channel.add_subscriber(callback)
            self._channels[(name, key)] = channel
        return channel

    def subscribe(
        self,
        name: str,
        callback: Callable,
        key: Optional[Hashable] = None,
    ) -> Subscription:
        """Attach ``callback`` to ``(name, key)``.

        ``key=None`` is a *broadcast* subscription: the callback joins
        every existing channel of the name, the name's un-keyed channel,
        and every keyed channel created later.
        """
        self._check_name(name)
        if key is None:
            self._broadcast.setdefault(name, []).append(callback)
            for (cname, ckey), channel in self._channels.items():
                if cname == name:
                    channel.add_subscriber(callback)
            if (name, None) not in self._channels:
                self.signal(name, None).add_subscriber(callback)
        else:
            self.signal(name, key).add_subscriber(callback)
        return Subscription(name=name, key=key, callback=callback)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription everywhere it was mirrored."""
        name, key, callback = (
            subscription.name,
            subscription.key,
            subscription.callback,
        )
        if key is None:
            broadcast = self._broadcast.get(name, [])
            if callback in broadcast:
                broadcast.remove(callback)
            for (cname, _), channel in self._channels.items():
                if cname == name:
                    channel.remove_subscriber(callback)
        else:
            channel = self._channels.get((name, key))
            if channel is not None:
                channel.remove_subscriber(callback)

    # -- introspection ---------------------------------------------------------

    def subscriber_count(self, name: str) -> int:
        """Distinct live subscriptions across all channels of ``name``.

        A broadcast subscription is mirrored into every keyed channel of
        the name but is still *one* subscription; the mirror copies are
        discounted so the count matches what ``subscribe`` was called
        with (one per :class:`Subscription`).
        """
        n_channels = 0
        raw = 0
        for (cname, _), channel in self._channels.items():
            if cname == name:
                n_channels += 1
                raw += channel.subscriber_count
        n_broadcast = len(self._broadcast.get(name, ()))
        if n_broadcast and n_channels > 1:
            # each broadcast callback appears once per channel of the name
            raw -= n_broadcast * (n_channels - 1)
        return raw

    def quiescent(self) -> bool:
        """True when no channel on the bus has any subscriber — the
        whole-machine zero-cost condition."""
        return all(not channel for channel in self._channels.values())

    def _check_name(self, name: str) -> None:
        if self.strict and name not in self._declared:
            raise KeyError(
                f"signal {name!r} not declared; known: {sorted(self._declared)}"
            )
