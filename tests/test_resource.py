"""Unit tests for the blocking FIFO resource (switch-port queue model)."""

import pytest

from repro.core.engine import Engine, SimulationError
from repro.network.packet import Packet, PacketKind
from repro.network.resource import Resource, Transit, start_transit


def _packet(words=1, src=0, dst=0):
    return Packet(kind=PacketKind.READ_REQ, src=src, dst=dst, address=0, words=words)


def _run_chain(engine, resources, packets, sink):
    for p in packets:
        start_transit(p, list(resources) + [sink])
    engine.run()


class TestServiceTiming:
    def test_single_packet_service_time(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=4, words_per_cycle=1.0)
        out = []
        start_transit(_packet(words=1), [r, lambda p: out.append(eng.now)])
        eng.run()
        assert out == [1.0]

    def test_multiword_packet_takes_longer(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=4, words_per_cycle=1.0)
        out = []
        start_transit(_packet(words=3), [r, lambda p: out.append(eng.now)])
        eng.run()
        assert out == [3.0]

    def test_fixed_cycles_added(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=4, words_per_cycle=1.0, fixed_cycles=2.0)
        out = []
        start_transit(_packet(words=1), [r, lambda p: out.append(eng.now)])
        eng.run()
        assert out == [3.0]

    def test_fifo_order_and_pipelining(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=8, words_per_cycle=1.0)
        out = []
        for i in range(3):
            start_transit(_packet(), [r, lambda p, i=i: out.append((i, eng.now))])
        eng.run()
        assert out == [(0, 1.0), (1, 2.0), (2, 3.0)]


class TestChainedResources:
    def test_two_stage_latency(self):
        eng = Engine()
        a = Resource(eng, "a", capacity_words=4)
        b = Resource(eng, "b", capacity_words=4)
        out = []
        _run_chain(eng, [a, b], [_packet()], lambda p: out.append(eng.now))
        assert out == [2.0]

    def test_pipeline_throughput_one_word_per_cycle(self):
        eng = Engine()
        a = Resource(eng, "a", capacity_words=8)
        b = Resource(eng, "b", capacity_words=8)
        out = []
        _run_chain(eng, [a, b], [_packet() for _ in range(5)],
                   lambda p: out.append(eng.now))
        # first arrives after 2 cycles; the rest stream 1/cycle behind it
        assert out == [2.0, 3.0, 4.0, 5.0, 6.0]


class TestBackpressure:
    def test_offer_rejected_when_full(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=2)
        t1 = Transit(_packet(words=2), [r], 0)
        t2 = Transit(_packet(words=1), [r], 0)
        assert r.offer(t1)
        assert not r.offer(t2)
        assert r.stats.rejected_offers == 1

    def test_cut_through_overhang(self):
        # a 4-word packet may enter a 2-word queue when it has free space
        eng = Engine()
        r = Resource(eng, "r", capacity_words=2)
        assert r.offer(Transit(_packet(words=4), [r], 0))
        assert not r.has_space()

    def test_blocked_head_stalls_upstream(self):
        eng = Engine()
        fast = Resource(eng, "fast", capacity_words=8, words_per_cycle=1.0)
        slow = Resource(eng, "slow", capacity_words=1, words_per_cycle=0.25)
        out = []
        for _ in range(4):
            start_transit(_packet(), [fast, slow, lambda p: out.append(eng.now)])
        eng.run()
        # slow serves 1 word per 4 cycles; arrivals are spaced by ~4
        assert len(out) == 4
        gaps = [b - a for a, b in zip(out, out[1:])]
        assert all(g == pytest.approx(4.0) for g in gaps)
        assert fast.stats.blocked_cycles > 0

    def test_head_of_line_blocking_preserves_order(self):
        eng = Engine()
        a = Resource(eng, "a", capacity_words=8)
        slow = Resource(eng, "slow", capacity_words=1, words_per_cycle=0.1)
        order = []
        for i in range(3):
            start_transit(_packet(), [a, slow, lambda p, i=i: order.append(i)])
        eng.run()
        assert order == [0, 1, 2]


class TestStats:
    def test_words_and_packets_counted(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=8)
        for _ in range(3):
            start_transit(_packet(words=2), [r, lambda p: None])
        eng.run()
        assert r.stats.packets == 3
        assert r.stats.words == 6

    def test_utilization(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=8)
        start_transit(_packet(words=4), [r, lambda p: None])
        end = eng.run()
        assert r.utilization(end) == pytest.approx(1.0)
        assert r.utilization(8.0) == pytest.approx(0.5)

    def test_utilization_zero_elapsed(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=8)
        assert r.utilization(0.0) == 0.0


class _StallOnce:
    """Fault site stub: stalls the first service start by ``cycles`` and
    records the time of every consultation."""

    def __init__(self, engine, cycles):
        self.engine = engine
        self.cycles = cycles
        self.calls = []

    def before_service(self, resource, transit):
        self.calls.append(self.engine.now)
        return self.cycles if len(self.calls) == 1 else 0.0


class TestRecovery:
    def test_isolated_access_pays_no_recovery(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=4, recovery_cycles=3.0)
        out = []
        sink = lambda p: out.append(eng.now)
        start_transit(_packet(), [r, sink])
        eng.schedule(10.0, lambda: start_transit(_packet(), [r, sink]))
        eng.run()
        assert out == [1.0, 11.0]

    def test_back_to_back_spaced_by_recovery(self):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=4, recovery_cycles=3.0)
        out = []
        for _ in range(3):
            start_transit(_packet(), [r, lambda p: out.append(eng.now)])
        eng.run()
        # each departure opens a 3-cycle window before the next start
        assert out == [1.0, 5.0, 9.0]
        assert r.stats.busy_cycles == 3.0

    @pytest.mark.parametrize(
        "recovery, finishes, consulted",
        [(0.0, [6.0, 7.0], [0.0, 5.0, 6.0]), (3.0, [6.0, 10.0], [0.0, 5.0, 9.0])],
    )
    def test_fault_stall_holds_the_slot(self, recovery, finishes, consulted):
        eng = Engine()
        r = Resource(eng, "r", capacity_words=4, recovery_cycles=recovery)
        r.fault_hook = hook = _StallOnce(eng, 5.0)
        out = []
        for _ in range(2):
            start_transit(_packet(), [r, lambda p: out.append(eng.now)])
        eng.run(until=4.0)
        # mid-stall: the head holds the slot, nothing is in service yet
        assert r._serving and r.queued_packets == 2
        assert r.stats.busy_cycles == 0.0
        eng.run()
        assert out == finishes
        # the hook is consulted at each start, after any recovery hold
        assert hook.calls == consulted


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Engine(), "r", capacity_words=0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            Resource(Engine(), "r", capacity_words=1, words_per_cycle=0)

    def test_empty_route_rejected(self):
        with pytest.raises(SimulationError):
            start_transit(_packet(), [])

    def test_route_must_start_with_resource(self):
        with pytest.raises(SimulationError):
            start_transit(_packet(), [lambda p: None])
