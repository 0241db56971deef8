"""Tests for the observability layer: metrics, monitors, traces, reports."""

import json

import pytest

from repro.core.config import CedarConfig
from repro.core.context import add_context_observer, remove_context_observer
from repro.core.engine import Engine
from repro.core.machine import CedarMachine
from repro.monitor.metrics import (
    MetricsRegistry,
    Timeline,
    TimeWeighted,
    component_path,
)
from repro.monitor.monitors import attach_standard_monitors, detach_monitors
from repro.monitor.report import (
    ReportCollector,
    RunReport,
    aggregate_reports,
    render_report_summary,
)
from repro.monitor.tracer import ChromeTracer, validate_chrome_trace


def run_small_kernel(machine):
    from repro.cluster.ce import AwaitStream, StartPrefetch, SyncInstruction

    def prog():
        stream = yield StartPrefetch(length=16, stride=1, address=0)
        yield AwaitStream(stream)
        yield SyncInstruction(address=4096)

    return machine.run_programs({0: prog()})


class TestTimeWeighted:
    def test_time_weighted_mean(self):
        tw = TimeWeighted("q")
        tw.update(2.0, 10.0)  # value 0 held 0..10
        tw.update(6.0, 20.0)  # value 2 held 10..20
        # through t=40: 0*10 + 2*10 + 6*20 = 140 over 40 cycles
        assert tw.mean(40.0) == pytest.approx(3.5)
        assert tw.maximum == 6.0

    def test_distribution_includes_open_interval(self):
        tw = TimeWeighted("q")
        tw.update(1.0, 5.0)
        dist = tw.distribution(now=8.0)
        assert dist[0.0] == pytest.approx(5.0)
        assert dist[1.0] == pytest.approx(3.0)

    def test_zero_duration_run(self):
        """A machine that never advances time: the mean degenerates to
        the held value and the distribution stays empty — no 0/0."""
        tw = TimeWeighted("q")
        assert tw.mean(0.0) == 0.0
        assert tw.mean() == 0.0
        assert tw.distribution(0.0) == {}

    def test_snapshot_at_now_before_any_sample(self):
        """Reading through ``now`` with no updates yet must integrate
        the initial value over the whole window, not crash or lie."""
        tw = TimeWeighted("q")
        assert tw.mean(40.0) == 0.0
        assert tw.distribution(40.0) == {0.0: 40.0}
        tw_nonzero = TimeWeighted("q", start_value=3.0)
        assert tw_nonzero.mean(10.0) == pytest.approx(3.0)
        assert tw_nonzero.distribution(10.0) == {3.0: 10.0}

    def test_repeated_same_timestamp_samples(self):
        """Two updates at the same instant: the intermediate value was
        held for zero cycles, so only the final one carries weight."""
        tw = TimeWeighted("q")
        tw.update(2.0, 10.0)
        tw.update(5.0, 10.0)  # instantaneous overwrite
        assert tw.value == 5.0
        assert tw.maximum == 5.0
        assert tw.mean(20.0) == pytest.approx(2.5)  # (0*10 + 5*10) / 20
        dist = tw.distribution(20.0)
        assert 2.0 not in dist  # zero-cycle hold never enters the mix
        assert dist[5.0] == pytest.approx(10.0)

    def test_mean_clamps_a_stale_now(self):
        """``now`` earlier than the last update (a reader racing the
        writer's clock) must not produce a negative open interval."""
        tw = TimeWeighted("q")
        tw.update(4.0, 10.0)
        assert tw.mean(5.0) == tw.mean(10.0)


class TestTimeline:
    def test_spreads_across_bins(self):
        tl = Timeline("busy", bin_cycles=10.0)
        tl.add(start=5.0, duration=10.0)  # half in bin 0, half in bin 1
        fractions = tl.fractions()
        assert fractions[0] == pytest.approx(0.5)
        assert fractions[1] == pytest.approx(0.5)
        assert tl.busy_cycles() == pytest.approx(10.0)

    def test_fraction_clamped(self):
        tl = Timeline("busy", bin_cycles=10.0)
        tl.add(0.0, 8.0)
        tl.add(0.0, 8.0)  # two servers overlapping in one bin
        assert tl.fractions()[0] == 1.0
        assert tl.peak_fraction() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline("bad", bin_cycles=0.0)

    def test_zero_duration_add_is_inert(self):
        tl = Timeline("busy", bin_cycles=10.0)
        tl.add(start=5.0, duration=0.0)
        tl.add(start=5.0, duration=-1.0)
        assert tl.fractions() == {}
        assert tl.busy_cycles() == 0.0
        assert tl.peak_fraction() == 0.0

    def test_negative_start_clamped_to_time_zero(self):
        tl = Timeline("busy", bin_cycles=10.0)
        tl.add(start=-5.0, duration=5.0)
        assert tl.fractions() == {0: pytest.approx(0.5)}

    def test_repeated_same_bin_credit_accumulates(self):
        tl = Timeline("busy", bin_cycles=10.0)
        tl.add(2.0, 3.0)
        tl.add(2.0, 3.0)  # same window, second server
        assert tl.busy_cycles() == pytest.approx(6.0)
        assert tl.fractions()[0] == pytest.approx(0.6)


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timeline("t") is reg.timeline("t")
        reg.counter("a").inc(3)
        assert reg.counter("a").value == 3

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("gmem.module[0].services").inc(5)
        reg.gauge("g").set(2.5)
        reg.time_weighted("q").update(4.0, 10.0)
        reg.histogram("h", 0.0, 16.0).record(3.0)
        reg.timeline("busy").add(0.0, 100.0)
        snap = reg.snapshot(now=20.0)
        text = json.dumps(snap)  # must not raise
        assert "gmem.module[0].services" in text
        assert snap["gmem.module[0].services"] == 5
        assert snap["h"]["samples"] == 1

    def test_component_path(self):
        assert component_path("gmem.module", 12) == "gmem.module[12]"
        assert component_path("net.fwd.stage", 1) == "net.fwd.stage[1]"


class TestEngineSelfMetrics:
    def test_counts_events_and_wall_time(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.schedule_after(float(i), fired.append, i)
        eng.run()
        m = eng.self_metrics()
        assert m["events_processed"] == 10
        assert m["sim_cycles"] == 9.0
        assert m["runs"] == 1
        assert m["run_wall_s"] > 0
        assert m["events_per_sec"] > 0
        assert m["pending"] == 0

    def test_queue_depth_counts_distinct_pending_timestamps(self):
        eng = Engine()
        for when in (1.0, 1.0, 2.0, 5.0, 5.0, 5.0):
            eng.schedule(when, lambda: None)
        m = eng.self_metrics()
        assert m["queue_depth_timestamps"] == 3
        assert m["pending"] == 6
        eng.run(until=2.0)
        assert eng.self_metrics()["queue_depth_timestamps"] == 1

    def test_reset_clears_self_metrics(self):
        eng = Engine()
        eng.schedule_after(1.0, lambda: None)
        eng.run()
        eng.reset()
        m = eng.self_metrics()
        assert m["events_processed"] == 0 and m["runs"] == 0
        assert m["run_wall_s"] == 0.0


class TestContextObservers:
    def test_observer_sees_every_new_context(self):
        seen = []
        observer = add_context_observer(seen.append)
        try:
            machine = CedarMachine(CedarConfig())
            assert machine.ctx in seen
        finally:
            remove_context_observer(observer)
        before = len(seen)
        CedarMachine(CedarConfig())
        assert len(seen) == before  # removed observers stay silent

    def test_remove_unknown_observer_is_noop(self):
        remove_context_observer(lambda ctx: None)


class TestStandardMonitors:
    def test_monitors_populate_registry(self):
        machine = CedarMachine(CedarConfig(), monitor_port=0)
        registry = MetricsRegistry()
        monitors = attach_standard_monitors(machine.bus, registry)
        try:
            run_small_kernel(machine)
        finally:
            detach_monitors(monitors)
        snap = registry.snapshot(now=machine.engine.now)
        # prefetch activity was seen per port
        assert snap["pfu.port[0].streams"] == 1
        assert snap["pfu.port[0].requests"] == 16
        # memory modules serviced the requests and the sync op
        services = sum(
            v for k, v in snap.items() if k.endswith(".services") and k.startswith("gmem")
        )
        assert services >= 17
        assert snap["sync.total_ops"] == 1
        # the network carried packets and its busy timeline has content
        assert any(k.startswith("net.") and k.endswith(".packets") for k in snap)
        assert snap["gmem.busy"]["busy_cycles"] > 0

    def test_detached_monitors_leave_bus_quiescent(self):
        machine = CedarMachine(CedarConfig())
        monitors = attach_standard_monitors(machine.bus)
        detach_monitors(monitors)
        assert machine.bus.quiescent()


class TestChromeTracer:
    def test_trace_from_machine_run(self):
        machine = CedarMachine(CedarConfig(), monitor_port=0)
        tracer = ChromeTracer().attach(machine.bus)
        try:
            run_small_kernel(machine)
        finally:
            tracer.detach()
        n_events, n_tracks = validate_chrome_trace(tracer.trace())
        assert n_events > 0
        assert n_tracks >= 3  # network stages, memory modules, CE ports
        assert tracer.track_count() == n_tracks
        # detaching stops collection
        count = len(tracer.events)
        machine.reset()
        run_small_kernel(machine)
        assert len(tracer.events) == count

    def test_write_and_validate_file(self, tmp_path):
        machine = CedarMachine(CedarConfig(), monitor_port=0)
        tracer = ChromeTracer().attach(machine.bus)
        run_small_kernel(machine)
        tracer.detach()
        path = tmp_path / "trace.json"
        tracer.write(path)
        from repro.monitor.tracer import validate_chrome_trace_file

        n_events, n_tracks = validate_chrome_trace_file(path)
        assert n_events == len(tracer.events) and n_tracks >= 3

    def test_capacity_overflow_counts_drops(self):
        machine = CedarMachine(CedarConfig(), monitor_port=0)
        tracer = ChromeTracer(capacity=10).attach(machine.bus)
        run_small_kernel(machine)
        tracer.detach()
        assert len(tracer.events) == 10
        assert tracer.dropped > 0
        assert tracer.trace()["otherData"]["dropped"] == tracer.dropped

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"no": "traceEvents"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "pid": 1}]})
        with pytest.raises(ValueError):
            # complete event without a duration
            validate_chrome_trace(
                {"traceEvents": [{"name": "e", "ph": "X", "pid": 1, "ts": 0.0}]}
            )


class TestRunReports:
    def test_collector_instruments_machines(self):
        with ReportCollector() as collector:
            machine = CedarMachine(CedarConfig(), monitor_port=0)
            run_small_kernel(machine)
        assert collector.machines == 1
        (record,) = collector.machine_dicts()
        assert record["config_hash"] == CedarConfig().stable_hash()
        assert record["sim_cycles"] > 0
        assert record["engine"]["events_processed"] > 0
        assert record["metrics"]["pfu.port[0].streams"] == 1

    def test_collector_uninstall_stops_instrumenting(self):
        collector = ReportCollector().install()
        collector.uninstall()
        CedarMachine(CedarConfig())
        assert collector.machines == 0

    def test_report_round_trip_and_aggregate(self):
        report = RunReport(
            experiment="tiny",
            title="Tiny",
            kwargs={"n": 1},
            elapsed_s=0.5,
            cached=False,
            machines=[
                {
                    "config_hash": "x",
                    "sim_cycles": 100.0,
                    "engine": {"events_processed": 10, "run_wall_s": 0.1},
                    "metrics": {},
                }
            ],
        )
        data = json.loads(report.to_json())
        again = RunReport.from_dict(data)
        assert again.total_engine_events() == 10
        assert again.total_sim_cycles() == 100.0
        summary = aggregate_reports([data, data])
        assert summary["experiments"] == 2
        assert summary["total_engine_events"] == 20
        text = render_report_summary([data])
        assert "tiny" in text and "Run reports" in text

    def test_runner_collects_reports(self, tmp_path):
        from repro.experiments.characterization import run_characterization
        from repro.experiments.runner import run_experiment

        # another test may have warmed the experiment's own memo cache,
        # which would leave the collector nothing to observe
        run_characterization.cache_clear()
        result = run_experiment(
            "characterization", cache_dir=tmp_path, collect_report=True
        )
        assert result.report is not None
        assert result.report["experiment"] == "characterization"
        assert result.report["machines_built"] >= 1
        assert result.report["total_engine_events"] > 0
        # the cached replay returns the stored report
        replay = run_experiment(
            "characterization", cache_dir=tmp_path, collect_report=True
        )
        assert replay.cached and replay.report == result.report
        # plain cached runs still work and omit the report
        plain = run_experiment("characterization", cache_dir=tmp_path)
        assert plain.cached and plain.report is None
        assert plain.output == result.output
