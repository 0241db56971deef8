"""The ledger gate's select-and-diff step, without running perfbench.

``benchmarks/ledger.py`` compares the exact per-layer counts of one
traced perfbench round per workload with ``benchmarks/ledger.json``;
these tests drive its pure ``judge`` step with hand-made results.
"""

import importlib.util
from pathlib import Path

_LEDGER_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger.py"
_spec = importlib.util.spec_from_file_location("ledger", _LEDGER_PY)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

UNITS = {
    "engine.events": "count",
    "engine.events_per_ref": "events/ref",
    "network.busy_cycles": "cyc",
    "network.offer_accept_ratio": "ratio",
    "network.calls": "count",
    "engine.self_s": "s",
    "engine.us_per_ref": "us",
    "monitor.report_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_x": "x",
}

COUNTS = {
    "engine.events": 380370,
    "engine.events_per_ref": 7.6074,
    "network.busy_cycles": 200000.0,
    "network.offer_accept_ratio": 1.0,
    "network.calls": 2184307,
}


def _result(failed=0, **changed):
    values = {**COUNTS, "engine.self_s": 2.6, "engine.us_per_ref": 52.4,
              "monitor.report_bytes": 312800, "trace.wall_s": 19.9,
              "trace.overhead_x": 3.8, **changed}
    return {"correct": True, "attempted": 20, "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in values.items()}}


def _ledger(python="3.11", **changed):
    return {"python": python, "workloads": {"flood": {**COUNTS, **changed}}}


def test_identical_counts_pass_and_make_the_measured_document():
    measured, problems, notices = ledger.judge(
        _ledger(), {"flood": _result()}, UNITS, "3.11")
    assert problems == [] and notices == []
    assert measured == _ledger()


def test_a_changed_count_is_reported_with_workload_and_metric():
    _, problems, _ = ledger.judge(
        _ledger(), {"flood": _result(**{"engine.events": 380371})}, UNITS, "3.11")
    assert problems == ["flood engine.events 380370 -> 380371"]


def test_host_time_trace_and_report_bytes_are_ignored():
    result = _result(**{"engine.self_s": 99.0, "engine.us_per_ref": 99.0,
                        "monitor.report_bytes": 312801, "trace.wall_s": 99.0,
                        "trace.overhead_x": 99.0})
    measured, problems, _ = ledger.judge(_ledger(), {"flood": result}, UNITS, "3.11")
    assert problems == []
    assert set(measured["workloads"]["flood"]) == set(COUNTS)


def test_calls_skipped_with_a_notice_on_another_python():
    result = _result(**{"network.calls": 1})
    _, problems, notices = ledger.judge(_ledger(), {"flood": result}, UNITS, "3.12")
    assert problems == []
    assert notices == ["flood network.calls not compared "
                       "(ledger python 3.11, running 3.12)"]
    # the model counts are still compared
    result = _result(**{"network.busy_cycles": 1.0})
    _, problems, _ = ledger.judge(_ledger(), {"flood": result}, UNITS, "3.12")
    assert problems == ["flood network.busy_cycles 200000.0 -> 1.0"]


def test_a_missing_metric_is_an_error():
    result = _result()
    del result["metrics"]["network.busy_cycles"]
    _, problems, _ = ledger.judge(_ledger(), {"flood": result}, UNITS, "3.11")
    assert problems == ["flood network.busy_cycles missing from the run"]
    recorded = _ledger()
    del recorded["workloads"]["flood"]["engine.events"]
    _, problems, _ = ledger.judge(recorded, {"flood": _result()}, UNITS, "3.11")
    assert problems == ["flood engine.events missing from the ledger"]


def test_a_failed_or_incorrect_run_is_an_error():
    _, problems, _ = ledger.judge(_ledger(), {"flood": _result(failed=1)}, UNITS, "3.11")
    assert problems == ["flood: correct True, failed 1"]
    result = {**_result(), "correct": False}
    _, problems, _ = ledger.judge(_ledger(), {"flood": result}, UNITS, "3.11")
    assert problems == ["flood: correct False, failed 0"]
