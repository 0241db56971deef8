"""Utilization monitors: broadcast bus subscribers feeding the registry.

The paper attaches histogrammers and tracers to arbitrary hardware
signals; these classes are their software counterparts.  Each monitor
subscribes *broadcast* to one family of architectural signals and
derives:

* **busy-fraction timelines** (network stages, memory modules) from
  departure/service events and the resources' public rate parameters;
* **queue-occupancy distributions** (time-weighted words queued per
  resource) from the ``net.enqueue`` / ``net.dequeue`` pair;
* **per-module service-time histograms** from ``gmem.service``'s
  ``cycles`` payload.

Monitors only read signal payloads and write
:class:`~repro.monitor.metrics.MetricsRegistry` instruments — they
never touch machine state, so attaching any set of them leaves cycle
counts bit-identical (the zero-cost contract, verified by
``tests/test_zero_cost.py``).

Handles: a handler resolves its instruments once per emitter (resource
object, module index or port) at that emitter's first event, in the
order the registry has always seen them, and keeps the bound handles
(a :class:`~repro.monitor.metrics.Counter`, a ``Timeline.add``, a
``TimeWeighted.update``, a ``Histogrammer.record``) in a dict.  Later
events never format a metric name or look one up.

Metric naming scheme: ``<component path>.<metric>`` where the component
path matches the machine's resource names — ``net.fwd.s0[3]``,
``gmem.module[12]``, ``sync.module[12]``, ``pfu.port[0]``,
``cluster.cl2.cache``.  Stage/subsystem aggregates drop the trailing
index: ``net.fwd.s0.busy``, ``gmem.busy``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.monitor.metrics import Counter, MetricsRegistry

#: default busy-timeline bin width in cycles.
DEFAULT_BIN_CYCLES = 256.0


class MonitorBase:
    """Subscription bookkeeping shared by every monitor."""

    #: signal names the monitor wants (subclasses override).
    SIGNALS: tuple = ()

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self._subscriptions: List[tuple] = []

    def attach(self, bus) -> "MonitorBase":
        """Broadcast-subscribe to every declared signal of interest."""
        for name in self.SIGNALS:
            if bus.declared(name):
                handler = getattr(self, "_on_" + name.replace(".", "_"))
                self._subscriptions.append((bus, bus.subscribe(name, handler)))
        return self

    def detach(self) -> None:
        for bus, subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []


class NetworkMonitor(MonitorBase):
    """Per-link traffic counters, stage busy timelines, queue occupancy."""

    SIGNALS = ("net.hop", "net.enqueue", "net.dequeue")

    def __init__(
        self, metrics: MetricsRegistry, bin_cycles: float = DEFAULT_BIN_CYCLES
    ) -> None:
        super().__init__(metrics)
        self.bin_cycles = bin_cycles
        #: resource -> (packets Counter, words Counter, stage Timeline.add)
        self._hops: Dict[object, tuple] = {}
        #: resource -> (queue_words TimeWeighted.update, queue_dist record)
        self._queues: Dict[object, tuple] = {}

    @staticmethod
    def _stage_path(resource_name: str) -> str:
        """``"fwd.s0[3]"`` -> ``"net.fwd.s0"`` (aggregation track)."""
        return "net." + resource_name.split("[", 1)[0]

    def _on_net_hop(self, resource, packet, time: float) -> None:
        handles = self._hops.get(resource)
        if handles is None:
            m = self.metrics
            base = f"net.{resource.name}"
            handles = self._hops[resource] = (
                m.counter(f"{base}.packets"),
                m.counter(f"{base}.words"),
                m.timeline(self._stage_path(resource.name), self.bin_cycles).add,
            )
        packets, words, add_busy = handles
        packets.value += 1
        words.value += packet.words
        duration = resource.fixed_cycles + packet.words / resource.words_per_cycle
        add_busy(time - duration, duration)

    def _occupancy(self, resource, packet, time: float) -> None:
        handles = self._queues.get(resource)
        if handles is None:
            # raw resource names here: queue signals also come from
            # memory modules ("gm[4]") and cluster banks ("cl0.cache"),
            # not only network links.
            m = self.metrics
            handles = self._queues[resource] = (
                m.time_weighted(f"{resource.name}.queue_words").update,
                m.histogram(
                    f"{resource.name}.queue_dist",
                    0.0,
                    float(max(resource.capacity_words, 1)) + 1.0,
                    bins=min(64, resource.capacity_words + 2),
                ).record,
            )
        update, record = handles
        words = resource.queued_words
        update(words, time)
        record(words)

    #: one handler for both queue edges: the occupancy after the edge is
    #: all it records.
    _on_net_enqueue = _on_net_dequeue = _occupancy


class MemoryMonitor(MonitorBase):
    """Per-module service counters and service-time histograms."""

    SIGNALS = ("gmem.service",)

    def __init__(
        self,
        metrics: MetricsRegistry,
        bin_cycles: float = DEFAULT_BIN_CYCLES,
        histogram_hi: float = 64.0,
    ) -> None:
        super().__init__(metrics)
        self.bin_cycles = bin_cycles
        self.histogram_hi = histogram_hi
        #: module index -> (services, words, service_cycles record, busy add)
        self._modules: Dict[int, tuple] = {}

    def _on_gmem_service(self, module: int, packet, time: float, cycles: float) -> None:
        handles = self._modules.get(module)
        if handles is None:
            m = self.metrics
            base = f"gmem.module[{module}]"
            handles = self._modules[module] = (
                m.counter(f"{base}.services"),
                m.counter(f"{base}.words"),
                m.histogram(f"{base}.service_cycles", 0.0, self.histogram_hi).record,
                m.timeline("gmem.busy", self.bin_cycles).add,
            )
        services, words, record, add_busy = handles
        services.value += 1
        words.value += packet.words
        record(cycles)
        add_busy(time - cycles, cycles)


class SyncMonitor(MonitorBase):
    """Synchronization-processor operation counters."""

    SIGNALS = ("sync.op",)

    def _on_sync_op(
        self, module: int, address: int, time: float, packet, success: bool
    ) -> None:
        self.metrics.counter(f"sync.module[{module}].ops").inc()
        self.metrics.counter("sync.total_ops").inc()
        self.metrics.counter(
            "sync.successes" if success else "sync.failures"
        ).inc()


class PrefetchMonitor(MonitorBase):
    """Machine-wide PFU activity: per-port counters and words in flight."""

    SIGNALS = ("pfu.arm", "pfu.request", "pfu.deliver", "pfu.suspend")

    def __init__(self, metrics: MetricsRegistry) -> None:
        super().__init__(metrics)
        #: one ``{port: handles}`` dict per signal: a port's counters
        #: appear in the registry as its signals first fire.
        self._streams: Dict[int, Counter] = {}
        self._requests: Dict[int, tuple] = {}
        self._deliveries: Dict[int, tuple] = {}
        self._suspensions: Dict[int, Counter] = {}
        #: port -> [words in flight, outstanding TimeWeighted.update]
        self._in_flight: Dict[int, list] = {}

    def _counter(self, port: int, metric: str) -> Counter:
        return self.metrics.counter(f"pfu.port[{port}].{metric}")

    def _flight(self, port: int, metric: str) -> tuple:
        """``(counter, in-flight state)``, resolved in that order."""
        counter = self._counter(port, metric)
        flight = self._in_flight.get(port)
        if flight is None:
            flight = self._in_flight[port] = [
                0,
                self.metrics.time_weighted(f"pfu.port[{port}].outstanding").update,
            ]
        return counter, flight

    def _on_pfu_arm(self, port: int, time: float) -> None:
        counter = self._streams.get(port)
        if counter is None:
            counter = self._streams[port] = self._counter(port, "streams")
        counter.value += 1

    def _on_pfu_request(self, port: int, word_index: int, time: float) -> None:
        handles = self._requests.get(port)
        if handles is None:
            handles = self._requests[port] = self._flight(port, "requests")
        counter, flight = handles
        counter.value += 1
        flight[0] += 1
        flight[1](flight[0], time)

    def _on_pfu_deliver(self, port: int, word_index: int, time: float) -> None:
        handles = self._deliveries.get(port)
        if handles is None:
            handles = self._deliveries[port] = self._flight(port, "deliveries")
        counter, flight = handles
        counter.value += 1
        flight[0] -= 1
        flight[1](flight[0], time)

    def _on_pfu_suspend(self, port: int, time: float) -> None:
        counter = self._suspensions.get(port)
        if counter is None:
            counter = self._suspensions[port] = self._counter(
                port, "page_suspensions"
            )
        counter.value += 1


class ClusterMonitor(MonitorBase):
    """Cluster cache / cluster-memory traffic and busy timelines."""

    SIGNALS = ("cluster.access",)

    def __init__(
        self, metrics: MetricsRegistry, bin_cycles: float = DEFAULT_BIN_CYCLES
    ) -> None:
        super().__init__(metrics)
        self.bin_cycles = bin_cycles
        #: resource -> (packets Counter, words Counter, busy Timeline.add)
        self._resources: Dict[object, tuple] = {}

    def _on_cluster_access(self, resource, packet, time: float) -> None:
        handles = self._resources.get(resource)
        if handles is None:
            m = self.metrics
            base = f"cluster.{resource.name}"
            handles = self._resources[resource] = (
                m.counter(f"{base}.packets"),
                m.counter(f"{base}.words"),
                m.timeline(f"{base}.busy", self.bin_cycles).add,
            )
        packets, words, add_busy = handles
        packets.value += 1
        words.value += packet.words
        duration = resource.fixed_cycles + packet.words / resource.words_per_cycle
        add_busy(time - duration, duration)


class FaultMonitor(MonitorBase):
    """Fault-injection event counters and stall-cost accounting."""

    SIGNALS = (
        "fault.transient",
        "fault.port_down",
        "fault.ecc",
        "fault.sync_timeout",
        "fault.reroute",
    )

    def _on_fault_transient(
        self, resource, packet, time: float, backoff_cycles: float
    ) -> None:
        m = self.metrics
        m.counter("fault.transients").inc()
        m.counter(f"fault.{resource.name}.transients").inc()
        m.counter("fault.backoff_cycles").inc(backoff_cycles)

    def _on_fault_port_down(self, resource, time: float, until: float) -> None:
        m = self.metrics
        m.counter("fault.port_downs").inc()
        m.counter(f"fault.{resource.name}.port_downs").inc()
        m.counter("fault.down_cycles").inc(until - time)

    def _on_fault_ecc(self, module: int, packet, time: float, stall_cycles: float) -> None:
        m = self.metrics
        m.counter("fault.ecc_retries").inc()
        m.counter(f"fault.gm[{module}].ecc_retries").inc()
        m.counter("fault.ecc_stall_cycles").inc(stall_cycles)

    def _on_fault_sync_timeout(
        self, module: int, address: int, time: float, penalty_cycles: float
    ) -> None:
        m = self.metrics
        m.counter("fault.sync_timeouts").inc()
        m.counter(f"fault.gm[{module}].sync_timeouts").inc()
        m.counter("fault.sync_timeout_cycles").inc(penalty_cycles)

    def _on_fault_reroute(self, network: str, packet, time: float) -> None:
        self.metrics.counter("fault.reroutes").inc()
        self.metrics.counter(f"fault.{network}.reroutes").inc()


#: the monitor set `attach_standard_monitors` instantiates, in order.
STANDARD_MONITORS = (
    NetworkMonitor,
    MemoryMonitor,
    SyncMonitor,
    PrefetchMonitor,
    ClusterMonitor,
    FaultMonitor,
)


def attach_standard_monitors(
    bus, metrics: Optional[MetricsRegistry] = None
) -> List[MonitorBase]:
    """Attach one of each standard monitor to ``bus``; returns them
    (all sharing ``metrics``, created if not supplied).  Detach with
    :func:`detach_monitors`."""
    registry = metrics if metrics is not None else MetricsRegistry()
    return [monitor_cls(registry).attach(bus) for monitor_cls in STANDARD_MONITORS]


def detach_monitors(monitors: List[MonitorBase]) -> None:
    for monitor in monitors:
        monitor.detach()
