"""The Cedar multistage shuffle-exchange network.

One :class:`OmegaNetwork` instance models one unidirectional network
(Cedar has two: forward for requests, reverse for replies).  Each stage
exposes one :class:`~repro.network.resource.Resource` per output port —
an 8x8 crossbar's output port with its two-word queue.  Injection ports
(one per source) model the CE/memory network interfaces.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import Engine
from repro.monitor.signals import NULL_SIGNAL
from repro.network.packet import Packet
from repro.network.resource import Hop, Resource, Transit
from repro.network.routing import delta_path, stage_radices


class OmegaNetwork:
    """A buffered, packet-switched, self-routing delta network.

    Parameters mirror :class:`~repro.core.config.NetworkConfig`.  The
    network owns its injection ports and stage output ports; terminal
    delivery is by sink callables registered per destination port.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        n_ports: int,
        switch_radix: int = 8,
        queue_words: int = 2,
        stage_cycles: float = 0.0,
        link_words_per_cycle: float = 1.0,
        injection_queue_words: int = 4,
    ) -> None:
        self.engine = engine
        self.name = name
        self.n_ports = n_ports
        self.radices = stage_radices(n_ports, switch_radix)
        self.stage_cycles = stage_cycles
        self._sinks: Dict[int, Callable[[Packet], None]] = {}
        #: optional degraded-mode router (a ``FaultInjector``), consulted
        #: on injection when set; ``None`` is the zero-cost default.
        self.fault_router = None
        #: (src, dst) -> tuple of network-internal hops; the delta path
        #: is a pure function of the port pair, so compute it once.
        self._route_cache: Dict[tuple, tuple] = {}
        #: (src, dst) -> the *complete* route tuple ending in the
        #: registered sink, so the hot sink-terminated case allocates
        #: nothing per packet.  Invalidated by :meth:`register_sink`.
        self._full_route_cache: Dict[tuple, Tuple[Hop, ...]] = {}
        self.injection_ports: List[Resource] = [
            Resource(
                engine,
                f"{name}.inject[{p}]",
                capacity_words=injection_queue_words,
                words_per_cycle=link_words_per_cycle,
            )
            for p in range(n_ports)
        ]
        self.stages: List[List[Resource]] = [
            [
                Resource(
                    engine,
                    f"{name}.s{stage}[{port}]",
                    capacity_words=queue_words,
                    words_per_cycle=link_words_per_cycle,
                    fixed_cycles=stage_cycles,
                )
                for port in range(n_ports)
            ]
            for stage in range(len(self.radices))
        ]

    @property
    def n_stages(self) -> int:
        return len(self.radices)

    # -- component lifecycle ---------------------------------------------------

    def attach(self, ctx) -> None:
        """Wire every link's departure to the bus's ``net.hop`` channel
        and its queue edges to ``net.enqueue`` / ``net.dequeue`` (all
        keyed by network name).  Links already owned by another network
        (shared-fabric views) keep their original channels."""
        signal = ctx.bus.signal("net.hop", key=self.name)
        enqueue = ctx.bus.signal("net.enqueue", key=self.name)
        dequeue = ctx.bus.signal("net.dequeue", key=self.name)
        span = ctx.bus.signal("net.span", key=self.name)
        for port in self.injection_ports:
            if port.depart_signal is NULL_SIGNAL:
                port.depart_signal = signal
                port.enqueue_signal = enqueue
                port.dequeue_signal = dequeue
                port.span_signal = span
        for stage in self.stages:
            for link in stage:
                if link.depart_signal is NULL_SIGNAL:
                    link.depart_signal = signal
                    link.enqueue_signal = enqueue
                    link.dequeue_signal = dequeue
                    link.span_signal = span

    def reset(self) -> None:
        for port in self.injection_ports:
            port.reset()
        for stage in self.stages:
            for link in stage:
                link.reset()

    def stats(self) -> dict:
        arrays = self.stage_state_arrays()
        last = self.n_stages - 1
        return {
            "packets_delivered": int(arrays["packets"][last].sum()),
            "words_delivered": int(arrays["words"][last].sum()),
            "rejected_offers": int(arrays["rejected_offers"].sum()),
            "injection_rejections": int(
                self.injection_state_arrays()["rejected_offers"].sum()
            ),
        }

    def stage_state_arrays(self) -> dict:
        """Parallel-array snapshot of per-link state, shape
        ``(n_stages, n_ports)``: traffic counters (``packets``,
        ``words``, ``busy_cycles``, ``rejected_offers``) and instantaneous
        queue state (``queued_words``, ``busy``).

        This is the numpy seam for width-proportional work — whole-fabric
        aggregation, occupancy heat maps, analysis notebooks — where one
        gather over the port population replaces a nested Python loop.
        The per-timestamp service loops stay scalar by design: a
        same-timestamp bucket carries ~2-20 completions, while a numpy
        ufunc call breaks even against scalar Python arithmetic only
        around ~50-100 elements.
        """
        flat = [link for stage in self.stages for link in stage]
        shape = (self.n_stages, self.n_ports)
        n = len(flat)

        def _gather(values, dtype):
            return np.fromiter(values, dtype=dtype, count=n).reshape(shape)

        return {
            "packets": _gather((r.stats.packets for r in flat), np.int64),
            "words": _gather((r.stats.words for r in flat), np.int64),
            "busy_cycles": _gather(
                (r.stats.busy_cycles for r in flat), np.float64
            ),
            "rejected_offers": _gather(
                (r.stats.rejected_offers for r in flat), np.int64
            ),
            "queued_words": _gather((r.queued_words for r in flat), np.int64),
            "busy": _gather((r._serving for r in flat), np.bool_),
        }

    def injection_state_arrays(self) -> dict:
        """Per-injection-port arrays (length ``n_ports``); see
        :meth:`stage_state_arrays`."""
        ports = self.injection_ports
        n = len(ports)
        return {
            "packets": np.fromiter(
                (p.stats.packets for p in ports), dtype=np.int64, count=n
            ),
            "words": np.fromiter(
                (p.stats.words for p in ports), dtype=np.int64, count=n
            ),
            "rejected_offers": np.fromiter(
                (p.stats.rejected_offers for p in ports),
                dtype=np.int64,
                count=n,
            ),
            "queued_words": np.fromiter(
                (p.queued_words for p in ports), dtype=np.int64, count=n
            ),
            "busy": np.fromiter(
                (p._serving for p in ports), dtype=np.bool_, count=n
            ),
        }

    def describe(self) -> dict:
        return {
            "name": self.name,
            "ports": self.n_ports,
            "stages": self.n_stages,
            "stage_radices": list(self.radices),
            "queue_words": self.stages[0][0].capacity_words,
            "injection_queue_words": self.injection_ports[0].capacity_words,
        }

    def view_with_own_injection(self, name: str) -> "OmegaNetwork":
        """A second network *view* sharing this network's stage links
        but with its own injection ports and sinks.

        This models reserved escape buffering for one traffic class
        (e.g. replies) on a shared fabric: both classes contend inside
        the stages, but neither can starve the other's entry — the
        minimal virtual-channel-style fix for request/reply protocol
        deadlock on a single network.
        """
        view = OmegaNetwork(
            self.engine,
            name=name,
            n_ports=self.n_ports,
            switch_radix=self.radices[0],
            queue_words=self.stages[0][0].capacity_words,
            stage_cycles=self.stage_cycles,
            link_words_per_cycle=self.stages[0][0].words_per_cycle,
            injection_queue_words=self.injection_ports[0].capacity_words,
        )
        view.radices = self.radices
        view.stages = self.stages  # shared fabric
        # stale: routes were built for its own stages
        view._route_cache.clear()
        view._full_route_cache.clear()
        return view

    def register_sink(self, port: int, sink: Callable[[Packet], None]) -> None:
        """Register the delivery callback for destination ``port``."""
        self._check_port(port)
        self._sinks[port] = sink
        self._full_route_cache.clear()  # sink-terminated routes are stale

    def route_for(
        self, packet: Packet, tail: Optional[Sequence[Hop]] = None
    ) -> Sequence[Hop]:
        """The hop route for ``packet``: injection port, one output port
        per stage, then either ``tail`` hops (e.g. a memory module) or
        the registered delivery sink.

        Routes are immutable tuples, memoized per (src, dst) pair — the
        delta path is a pure function of the port pair — and, for the
        sink-terminated case, memoized *complete*, so steady-state
        routing allocates nothing.  Callers must not mutate the result;
        to extend a route, concatenate onto a new tuple (see
        ``MemoryModule.on_service_complete``).
        """
        key = (packet.src, packet.dst)
        if tail is None:
            route = self._full_route_cache.get(key)
            if route is not None:
                return route
        body = self._route_cache.get(key)
        if body is None:
            self._check_port(packet.src)
            self._check_port(packet.dst)
            hops: List[Hop] = [self.injection_ports[packet.src]]
            for stage, port in enumerate(
                delta_path(packet.src, packet.dst, self.radices)
            ):
                hops.append(self.stages[stage][port])
            body = tuple(hops)
            self._route_cache[key] = body
        if tail is not None:
            return (*body, *tail)
        sink = self._sinks.get(packet.dst)
        if sink is None:
            raise KeyError(f"{self.name}: no sink registered for port {packet.dst}")
        route = (*body, sink)
        self._full_route_cache[key] = route
        return route

    def can_inject(self, src: int) -> bool:
        """Whether source ``src``'s injection queue has space now."""
        self._check_port(src)
        return self.injection_ports[src].has_space()

    def inject(self, packet: Packet, tail: Optional[List[Hop]] = None) -> Transit:
        """Inject ``packet``; the caller must have checked
        :meth:`can_inject` (injection raises when the port is full).

        When a fault router is armed and the primary route crosses a
        down port, the packet escapes into the reply fabric instead
        (degraded-mode routing); replies never re-enter ``inject`` so
        only fresh requests are rerouted."""
        router = self.fault_router
        if router is not None and tail is not None:
            transit = router.try_reroute(self, packet, tail)
            if transit is not None:
                return transit
        packet.injected_at = self.engine.now
        route = self.route_for(packet, tail)
        transit = Transit(packet=packet, route=route, idx=0)
        if not route[0].offer(transit):  # type: ignore[union-attr]
            from repro.core.engine import SimulationError

            raise SimulationError(
                f"{self.name}: injection port {packet.src} full; pace injections"
            )
        return transit

    def injection_port(self, src: int) -> Resource:
        self._check_port(src)
        return self.injection_ports[src]

    def total_words_delivered(self) -> int:
        """Words that have left the final stage."""
        return sum(r.stats.words for r in self.stages[-1])

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"{self.name}: port {port} out of range 0..{self.n_ports - 1}")
