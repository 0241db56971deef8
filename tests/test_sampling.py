"""Sampled request tracing: determinism, exact reconciliation of the
traced population, and the packet trace-mark fast path."""

import pytest

from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.cluster.ce import AwaitStream, GlobalLoad, GlobalStore, StartPrefetch
from repro.monitor.spans import PHASES, SpanCollector, validate_spans


def _programs(n_ces=4):
    def worker(port):
        def prog():
            stream = yield StartPrefetch(length=8, stride=1, address=64 * port)
            yield AwaitStream(stream)
            yield GlobalLoad(length=4, stride=1, address=1024 + 64 * port)
            yield GlobalStore(length=2, stride=1, address=2048 + 64 * port)

        return prog()

    return {port: worker(port) for port in range(n_ces)}


def _run(collector):
    machine = CedarMachine(CedarConfig())
    collector.attach(machine.bus)
    cycles = machine.run_programs(_programs())
    collector.detach()
    return cycles


class TestSampling:
    def test_every_one_matches_full_tracing(self):
        full = SpanCollector()
        _run(full)
        sampled = SpanCollector(every=1)
        _run(sampled)
        assert sampled.completed == full.completed
        assert sampled.sampled_out == 0
        assert sorted(s.latency for s in sampled.complete_spans()) == sorted(
            s.latency for s in full.complete_spans()
        )

    def test_one_in_n_population_counts(self):
        full = SpanCollector()
        _run(full)
        births = full.completed + full.dropped + len(full.incomplete_spans())
        sampled = SpanCollector(every=4)
        _run(sampled)
        traced = sampled.completed + len(sampled.incomplete_spans())
        assert traced + sampled.sampled_out == births
        assert traced == -(-births // 4)  # every 4th birth, starting at 0

    def test_selection_is_deterministic_across_runs(self):
        first = SpanCollector(every=4)
        _run(first)
        second = SpanCollector(every=4)
        _run(second)
        assert {s.request_id for s in first.complete_spans()} != set()
        # the *k-th born* reference is traced, so identical runs trace
        # identical reference sets (modulo the process-global id offset)
        firsts = sorted(s.birth for s in first.complete_spans())
        seconds = sorted(s.birth for s in second.complete_spans())
        assert firsts == seconds

    def test_traced_spans_reconcile_exactly(self):
        sampled = SpanCollector(every=4)
        _run(sampled)
        spans = sampled.complete_spans()
        assert spans  # the sample is non-empty
        for span in spans:
            phases = span.phases()
            assert phases is not None
            assert set(phases) == set(PHASES)
            assert sum(phases.values()) == pytest.approx(
                span.latency, abs=1e-9
            )
            assert span.hops  # hop records were emitted for the sample

    def test_sampled_out_packets_build_no_hop_records(self):
        sampled = SpanCollector(every=1_000_000)
        _run(sampled)
        # only the first-born reference is traced; every other packet's
        # trace mark is cleared at birth, so the net.span emission sites
        # skip the record build entirely and nothing reaches the buffer.
        assert sampled.completed + len(sampled.incomplete_spans()) == 1
        assert sampled.sampled_out > 0

    def test_spans_document_records_the_sampling(self):
        sampled = SpanCollector(every=4)
        _run(sampled)
        doc = sampled.spans()
        assert doc["sampled_every"] == 4
        assert doc["sampled_out"] == sampled.sampled_out
        validate_spans(doc)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanCollector(every=0)

    def test_sampling_does_not_change_cycles(self):
        bare = CedarMachine(CedarConfig()).run_programs(_programs())
        assert _run(SpanCollector(every=4)) == bare
        assert _run(SpanCollector(every=1)) == bare
