"""Unit tests for the discrete-event engine."""

import ast
from pathlib import Path

import pytest

from repro.core.engine import Engine, SimulationError


def test_events_run_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(5, lambda: seen.append("b"))
    eng.schedule(1, lambda: seen.append("a"))
    eng.schedule(9, lambda: seen.append("c"))
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 9


def test_ties_break_in_fifo_order():
    eng = Engine()
    seen = []
    for tag in range(5):
        eng.schedule(3, lambda t=tag: seen.append(t))
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_schedule_after_is_relative():
    eng = Engine()
    times = []

    def chain():
        times.append(eng.now)
        if len(times) < 3:
            eng.schedule_after(2, chain)

    eng.schedule(1, chain)
    eng.run()
    assert times == [1, 3, 5]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule(5, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule_after(-1, lambda: None)


def test_nan_times_rejected():
    # NaN compares false against everything, so a ``when < now`` guard
    # would let it through and corrupt the queue order.
    eng = Engine()
    nan = float("nan")
    with pytest.raises(SimulationError):
        eng.schedule(nan, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule_after(nan, lambda: None)
    seen = []
    eng.schedule(5.0, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [5.0]
    assert eng.pending() == 0
    with pytest.raises(SimulationError):
        eng.schedule(1.0, lambda: None)


def test_run_until_bound():
    eng = Engine()
    seen = []
    eng.schedule(1, lambda: seen.append(1))
    eng.schedule(100, lambda: seen.append(100))
    eng.run(until=50)
    assert seen == [1]
    assert eng.now == 50
    assert eng.pending() == 1


def test_run_resumes_after_until():
    eng = Engine()
    seen = []
    eng.schedule(100, lambda: seen.append(100))
    eng.run(until=50)
    eng.run()
    assert seen == [100]


def test_max_events_guards_against_livelock():
    eng = Engine()

    def forever():
        eng.schedule_after(1, forever)

    eng.schedule(0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=100)


def test_stop_when_predicate():
    eng = Engine()
    seen = []
    for t in range(10):
        eng.schedule(t, lambda t=t: seen.append(t))
    eng.run(stop_when=lambda: len(seen) >= 3)
    assert seen == [0, 1, 2]


def test_events_processed_counter():
    eng = Engine()
    for t in range(4):
        eng.schedule(t, lambda: None)
    eng.run()
    assert eng.events_processed == 4


# -- cancellation handles --------------------------------------------------


def test_cancel_prevents_execution():
    eng = Engine()
    seen = []
    handle = eng.schedule(5, lambda: seen.append("x"))
    assert eng.cancel(handle) is True
    eng.run()
    assert seen == []
    assert eng.pending() == 0


def test_cancel_twice_returns_false():
    eng = Engine()
    handle = eng.schedule(5, lambda: None)
    assert eng.cancel(handle) is True
    assert eng.cancel(handle) is False
    eng.run()
    assert eng.pending() == 0


def test_cancel_after_run_is_a_noop():
    eng = Engine()
    seen = []
    handle = eng.schedule(5, lambda: seen.append("x"))
    eng.run()
    assert seen == ["x"]
    assert eng.cancel(handle) is False
    assert eng.pending() == 0


def test_cancel_middle_of_ties_preserves_fifo():
    eng = Engine()
    seen = []
    handles = [eng.schedule(3, lambda t=t: seen.append(t)) for t in range(5)]
    eng.cancel(handles[2])
    eng.run()
    assert seen == [0, 1, 3, 4]


def test_pending_excludes_cancelled():
    eng = Engine()
    handles = [eng.schedule(t, lambda: None) for t in range(4)]
    assert eng.pending() == 4
    eng.cancel(handles[1])
    eng.cancel(handles[3])
    assert eng.pending() == 2


# -- varargs dispatch ------------------------------------------------------


def test_callback_receives_scheduled_args():
    eng = Engine()
    seen = []
    eng.schedule(1, seen.append, "a")
    eng.schedule_after(2, lambda x, y: seen.append((x, y)), 1, 2)
    eng.run()
    assert seen == ["a", (1, 2)]


# -- out-of-order scheduling -------------------------------------------------


def test_out_of_order_schedules_interleave_correctly():
    # Descending times, then monotone appends from a running chain; the
    # dispatch order must still be global time order.
    eng = Engine()
    seen = []
    for t in (9, 7, 5, 3, 1):
        eng.schedule(t, lambda t=t: seen.append(t))

    def chase():
        seen.append(eng.now)
        if eng.now < 8:
            eng.schedule_after(2, chase)

    eng.schedule(0, chase)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_tie_between_heap_and_tail_breaks_by_schedule_order():
    eng = Engine()
    seen = []
    eng.schedule(10, lambda: seen.append("scheduled-first"))
    eng.schedule(5, lambda: seen.append("earlier"))  # out of order
    eng.run()
    assert seen == ["earlier", "scheduled-first"]


def test_fifo_ties_across_heap_and_tail():
    eng = Engine()
    seen = []
    eng.schedule(10, lambda: seen.append("a"))
    eng.schedule(10, lambda: seen.append("b"))
    eng.schedule(9, lambda: None)  # out of order, between the ties
    eng.schedule(10, lambda: seen.append("c"))
    eng.run()
    assert seen == ["a", "b", "c"]


# -- stop / resume contract ------------------------------------------------


def test_request_stop_halts_after_current_event():
    eng = Engine()
    seen = []
    eng.schedule(1, lambda: seen.append(1))
    eng.schedule(2, lambda: (seen.append(2), eng.request_stop()))
    eng.schedule(3, lambda: seen.append(3))
    eng.run()
    assert seen == [1, 2]
    assert eng.pending() == 1
    eng.run()
    assert seen == [1, 2, 3]


def test_run_until_idle_drains_everything():
    eng = Engine()
    seen = []
    for t in (4, 2, 8):
        eng.schedule(t, lambda t=t: seen.append(t))
    final = eng.run_until_idle()
    assert seen == [2, 4, 8]
    assert final == 8
    assert eng.pending() == 0


def test_bounded_runs_compose_like_one_run():
    def build():
        eng = Engine()
        seen = []

        def chain(n):
            seen.append((eng.now, n))
            if n:
                eng.schedule_after(3, chain, n - 1)

        eng.schedule(1, chain, 5)
        eng.schedule(7, seen.append, "mid")
        return eng, seen

    eng1, seen1 = build()
    eng1.run()

    eng2, seen2 = build()
    eng2.run(until=6)
    assert eng2.now == 6
    eng2.run(until=11)
    eng2.run()
    assert seen2 == seen1
    assert eng2.now == eng1.now


def test_reset_clears_queue_in_place():
    eng = Engine()
    eng.schedule(5, lambda: None)
    eng.schedule(1, lambda: None)
    eng.run(until=0)
    eng.reset()
    assert eng.pending() == 0
    assert eng.now == 0.0
    seen = []
    eng.schedule(2, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [2]


def test_no_module_imports_engine_privates():
    # layering: components schedule through the public Engine API and
    # never import the queue's private storage helpers.
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    paths = sorted(src.rglob("*.py"))
    assert len(paths) > 50, f"no package found under {src}"
    offenders = []
    for path in paths:
        rel = path.relative_to(src.parent)
        if rel.as_posix() == "repro/core/engine.py":
            continue
        package = list(rel.parent.parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + [module] if module else base)
            if module == "repro.core.engine":
                offenders += [
                    f"{rel}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
