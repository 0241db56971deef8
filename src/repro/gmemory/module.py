"""Global memory modules as queueing resources.

A :class:`MemoryModule` is a :class:`~repro.network.resource.Resource`
sitting at the end of a forward-network route.  When a request packet's
service (the memory access) completes, the module transforms it in place
into the reply packet and hands it off into the reverse network — if the
reverse injection queue is full, the module blocks, which is how memory
backpressure propagates into the forward network.

The request→reply turn is the allocation pivot of the whole simulator:
one packet per global reference used to become two (request + reply).
The module now rewrites the request **in place**
(:meth:`~repro.network.packet.Packet.become_reply` — same object, same
``request_id``, same ``meta`` dict) and splices the reverse route by
tuple concatenation, so a read round trip allocates no second packet and
no hop lists.  Consumed packets (stores, which send no acknowledgement)
are handed back to the packet free list.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GlobalMemoryConfig
from repro.core.engine import Engine
from repro.monitor.signals import NULL_SIGNAL
from repro.network.omega import OmegaNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.resource import Hop, Resource, Transit
from repro.gmemory.sync import SyncProcessor


class MemoryModule(Resource):
    """One interleaved global-memory module with its sync processor."""

    __slots__ = (
        "index",
        "config",
        "reverse_network",
        "sync",
        "reads",
        "writes",
        "sync_ops",
        "ecc_retries",
        "sync_timeouts",
        "service_signal",
        "sync_signal",
    )

    def __init__(
        self,
        engine: Engine,
        index: int,
        config: GlobalMemoryConfig,
        reverse_network: Optional[OmegaNetwork] = None,
    ) -> None:
        super().__init__(
            engine,
            name=f"gm[{index}]",
            capacity_words=config.module_queue_words,
            words_per_cycle=1.0,
            fixed_cycles=0.0,
            recovery_cycles=config.recovery_cycles,
        )
        self.index = index
        self.config = config
        self.reverse_network = reverse_network
        self.sync = SyncProcessor()
        self.reads = 0
        self.writes = 0
        self.sync_ops = 0
        #: fault-injection counters, bumped by the module's fault site.
        self.ecc_retries = 0
        self.sync_timeouts = 0
        #: monitoring channels, wired by :meth:`GlobalMemory.attach`.
        self.service_signal = NULL_SIGNAL
        self.sync_signal = NULL_SIGNAL

    # -- Resource overrides --------------------------------------------------

    def service_cycles(self, packet: Packet) -> float:
        cycles = float(self.config.access_cycles)
        if packet.kind in (PacketKind.SYNC_REQ,):
            cycles += self.config.sync_op_cycles
        if packet.kind is PacketKind.BLOCK_REQ:
            # block reads stream out of the module a word per access slot
            requested = packet.meta.get("block_words", 1)
            cycles += max(0, requested - 1)
        return cycles

    def on_service_complete(self, transit: Transit) -> bool:
        packet = transit.packet
        cbs = self.service_signal.callbacks
        if cbs:
            # recomputing the service time here costs nothing on the
            # unmonitored path (we are inside the subscriber guard); it
            # gives the monitors per-module service-time histograms.
            # The emit is inlined, as in ``Resource._depart``.
            now = self.engine._now
            cycles = self.service_cycles(packet)
            for cb in cbs:
                cb(self.index, packet, now, cycles)
        request_words = packet.words
        kind = packet.kind
        if kind is PacketKind.READ_REQ:
            self.reads += 1
            packet.become_reply(PacketKind.READ_REPLY, words=1)
        elif kind is PacketKind.WRITE_REQ:
            # "Writes do not stall a CE" — no acknowledgement travels
            # back through the network, but the weakly-ordered memory
            # system lets a CE *fence*: completion callbacks let the
            # machine track outstanding stores per CE.
            self.writes += 1
            on_done = packet.meta.get("on_write_done")
            if on_done is not None:
                on_done(packet)
            # consumed here: the departure emissions in _depart still
            # read its fields (reuse cannot happen before they run)
            packet.release()
            return False
        elif kind is PacketKind.BLOCK_REQ:
            self.reads += 1
            requested = packet.meta.get("block_words", 1)
            # reply: control word + data, capped at the 4-word packet limit
            packet.become_reply(PacketKind.BLOCK_REPLY, words=min(1 + requested, 4))
        elif kind is PacketKind.SYNC_REQ:
            self.sync_ops += 1
            result = self._execute_sync(packet)
            packet.become_reply(PacketKind.SYNC_REPLY, words=1)
            packet.meta["sync_result"] = result
        else:
            raise ValueError(f"memory module cannot service packet kind {kind}")
        self.queued_words += packet.words - request_words
        self._extend_route_into_reverse(transit, packet)
        return True

    def _execute_sync(self, packet: Packet):
        operation = packet.meta.get("sync")
        if operation is None:
            result = self.sync.test_and_set(packet.address)
        else:
            test, test_operand, op, op_operand = operation
            result = self.sync.test_and_op(
                packet.address, test, test_operand, op, op_operand
            )
        sig = self.sync_signal
        if sig.callbacks:
            sig.emit(
                self.index, packet.address, self.engine.now, packet, result.success
            )
        return result

    def _extend_route_into_reverse(self, transit: Transit, reply: Packet) -> None:
        """Splice the reverse-network route after this module.

        Request routes end at the module; the reply continues through the
        reverse network back to the requesting port.
        """
        if self.reverse_network is None:
            return
        if transit.idx != len(transit.route) - 1:
            return  # route already extends past the module
        rev_route = self.reverse_network.route_for(reply)
        transit.route = (*transit.route, *rev_route)
        reply.injected_at = self.engine.now


class GlobalMemory:
    """The set of interleaved modules plus address-steering helpers."""

    def __init__(
        self,
        engine: Engine,
        config: GlobalMemoryConfig,
        reverse_network: Optional[OmegaNetwork] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.modules: List[MemoryModule] = [
            MemoryModule(engine, i, config, reverse_network)
            for i in range(config.modules)
        ]
        self._n_modules = config.modules
        #: per-module route tails, shared by every request to the module
        #: (tuples, so :meth:`route_tail` allocates nothing per packet).
        self._tails: Tuple[Tuple[Hop, ...], ...] = tuple(
            (m,) for m in self.modules
        )

    # -- component lifecycle ---------------------------------------------------

    def attach(self, ctx) -> None:
        """Give every module its per-module ``gmem.service`` / ``sync.op``
        monitoring channels, plus the shared queue-occupancy channels
        (keyed ``"gmem"`` so one subscription covers every module)."""
        enqueue = ctx.bus.signal("net.enqueue", key="gmem")
        dequeue = ctx.bus.signal("net.dequeue", key="gmem")
        span = ctx.bus.signal("net.span", key="gmem")
        for module in self.modules:
            module.service_signal = ctx.bus.signal("gmem.service", key=module.index)
            module.sync_signal = ctx.bus.signal("sync.op", key=module.index)
            module.enqueue_signal = enqueue
            module.dequeue_signal = dequeue
            module.span_signal = span

    def reset(self) -> None:
        for module in self.modules:
            module.reset()
            module.reads = module.writes = module.sync_ops = 0
            module.ecc_retries = module.sync_timeouts = 0
            module.sync = SyncProcessor()

    def stats(self) -> dict:
        arrays = self.module_state_arrays()
        return {
            "reads": int(arrays["reads"].sum()),
            "writes": int(arrays["writes"].sum()),
            "sync_ops": int(arrays["sync_ops"].sum()),
            "busy_cycles": float(arrays["busy_cycles"].sum()),
            "ecc_retries": int(arrays["ecc_retries"].sum()),
            "sync_timeouts": int(arrays["sync_timeouts"].sum()),
        }

    def module_state_arrays(self) -> dict:
        """Parallel-array snapshot of per-module state (length
        ``config.modules``): access counters (``reads``, ``writes``,
        ``sync_ops``, ``ecc_retries``, ``sync_timeouts``), service
        accounting (``busy_cycles``, ``words``), and instantaneous bank
        state (``queued_words``, ``busy``).

        The numpy seam for whole-population aggregation over the
        interleaved banks — module-utilization histograms, conflict
        analysis — mirroring ``OmegaNetwork.stage_state_arrays``.  The
        per-timestamp service path stays scalar (bucket widths sit far
        below the ufunc break-even; see ``OmegaNetwork.stage_state_arrays``).
        """
        mods = self.modules
        n = len(mods)

        def _gather(values, dtype):
            return np.fromiter(values, dtype=dtype, count=n)

        return {
            "reads": _gather((m.reads for m in mods), np.int64),
            "writes": _gather((m.writes for m in mods), np.int64),
            "sync_ops": _gather((m.sync_ops for m in mods), np.int64),
            "ecc_retries": _gather((m.ecc_retries for m in mods), np.int64),
            "sync_timeouts": _gather(
                (m.sync_timeouts for m in mods), np.int64
            ),
            "busy_cycles": _gather(
                (m.stats.busy_cycles for m in mods), np.float64
            ),
            "words": _gather((m.stats.words for m in mods), np.int64),
            "queued_words": _gather((m.queued_words for m in mods), np.int64),
            "busy": _gather((m._serving for m in mods), np.bool_),
        }

    def describe(self) -> dict:
        return {
            "modules": self.config.modules,
            "size_mb": self.config.size_bytes // (1 << 20),
            "access_cycles": self.config.access_cycles,
            "recovery_cycles": self.config.recovery_cycles,
            "module_queue_words": self.config.module_queue_words,
        }

    # -- address steering ------------------------------------------------------

    def module_for(self, word_address: int) -> MemoryModule:
        return self.modules[word_address % self._n_modules]

    def route_tail(self, word_address: int) -> Sequence[Hop]:
        """Forward-route tail for a request to ``word_address``: just the
        owning module (the reply route is spliced on service completion).
        A shared immutable tuple — do not mutate."""
        return self._tails[word_address % self._n_modules]

    @property
    def total_reads(self) -> int:
        return sum(m.reads for m in self.modules)

    @property
    def total_writes(self) -> int:
        return sum(m.writes for m in self.modules)

    @property
    def total_sync_ops(self) -> int:
        return sum(m.sync_ops for m in self.modules)
