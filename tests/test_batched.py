"""Same-timestamp bucket semantics: adversarial intra-timestamp mixes.

The :class:`~repro.core.engine.Engine` dispatches whole same-timestamp
buckets per transaction.  These tests drive it through the adversarial
intra-timestamp cases the bucket queue must get right: cancels landing
inside an already-popped bucket, zero-delay re-schedules extending the
current timestamp, ``request_stop`` mid-bucket with a resumed run, pulse
visits, bounded-run resume over buckets, and exceptions escaping
mid-bucket.

The project once kept a second, scalar heap+tail engine as the reference
semantics.  Scenarios that were only checked as "equal to the scalar
engine" now assert the literal traces, counts and cycles that engine
produced, recorded before it was deleted.
"""

import pytest

from repro.core.engine import _FREE_LIST_MAX, Engine, SimulationError, Watchdog


# ---------------------------------------------------------------------------
# intra-timestamp ordering


def test_same_timestamp_fifo_order_matches_scalar():
    def scenario(eng):
        seen = []
        for tag in range(8):
            eng.schedule(3.0, lambda t=tag: seen.append(t))
        eng.run_until_idle()
        return seen

    assert scenario(Engine()) == list(range(8))


def test_cancel_within_active_batch():
    # an early event in the bucket cancels a later one in the *same*
    # bucket — the drain has already popped the whole bucket, so the
    # blanked slot must be skipped mid-dispatch.
    def scenario(eng):
        seen = []
        handles = {}

        def killer():
            seen.append("killer")
            assert eng.cancel(handles["victim"])

        eng.schedule(2.0, killer)
        handles["victim"] = eng.schedule(2.0, lambda: seen.append("victim"))
        eng.schedule(2.0, lambda: seen.append("survivor"))
        eng.run_until_idle()
        return (seen, eng.pending(), eng.events_processed)

    seen, pending, processed = scenario(Engine())
    assert seen == ["killer", "survivor"]
    assert pending == 0
    assert processed == 2


def test_zero_delay_reschedule_extends_current_timestamp():
    # schedule_after(0) from inside a batch lands at the *current*
    # timestamp, whose bucket is already popped; the new event must run
    # in this timestamp, after every already-pending record
    # (scheduling order).
    def scenario(eng):
        seen = []

        def first():
            seen.append(("first", eng.now))
            eng.schedule_after(0.0, lambda: seen.append(("extra", eng.now)))

        eng.schedule(1.0, first)
        eng.schedule(1.0, lambda: seen.append(("second", eng.now)))
        eng.schedule(2.0, lambda: seen.append(("later", eng.now)))
        eng.run_until_idle()
        return seen

    assert scenario(Engine()) == [
        ("first", 1.0), ("second", 1.0), ("extra", 1.0), ("later", 2.0),
    ]


def test_zero_delay_reschedule_chain_drains_before_advancing():
    def scenario(eng):
        seen = []

        def chain(depth):
            seen.append((eng.now, depth))
            if depth:
                eng.schedule_after(0.0, chain, depth - 1)

        eng.schedule(1.0, chain, 3)
        eng.schedule(1.5, lambda: seen.append((eng.now, "tick")))
        eng.run_until_idle()
        return seen

    assert scenario(Engine()) == [
        (1.0, 3), (1.0, 2), (1.0, 1), (1.0, 0), (1.5, "tick"),
    ]


def test_mixed_cancel_reschedule_storm_is_identical():
    # a deterministic pseudo-random mix of same-timestamp schedules,
    # cancels of pending and active-batch events, and zero-delay
    # re-schedules; the full dispatch trace must match the reference.
    def scenario(eng):
        seen = []
        handles = []

        def act(tag, step):
            seen.append((eng.now, tag))
            k = (tag * 7 + step) % 4
            if k == 0:
                handles.append(
                    eng.schedule_after(0.0, act, tag + 100, step + 1)
                )
            elif k == 1 and handles:
                eng.cancel(handles.pop((tag + step) % len(handles)))
            elif k == 2:
                handles.append(
                    eng.schedule_after(float(tag % 3), act, tag + 200, step + 1)
                )

        for tag in range(12):
            handles.append(eng.schedule(float(tag % 3), act, tag, 0))
        eng.run_until_idle()
        return seen, eng.events_processed, eng.now, eng.pending()

    # the scalar reference engine's dispatch trace for this storm.
    trace, processed, now, pending = scenario(Engine())
    assert trace == [
        (0.0, 0), (0.0, 3), (0.0, 6), (0.0, 9), (0.0, 100), (0.0, 206),
        (1.0, 1), (1.0, 4), (1.0, 7), (1.0, 10), (1.0, 104),
        (2.0, 2), (2.0, 5), (2.0, 210), (4.0, 202),
    ]
    assert (processed, now, pending) == (15, 4.0, 0)


# ---------------------------------------------------------------------------
# request_stop mid-batch and the resume contract


def test_request_stop_mid_batch_preserves_remainder():
    def scenario(eng):
        seen = []

        def stopper():
            seen.append("stopper")
            eng.request_stop()

        eng.schedule(1.0, lambda: seen.append("a"))
        eng.schedule(1.0, stopper)
        eng.schedule(1.0, lambda: seen.append("b"))
        eng.schedule(2.0, lambda: seen.append("c"))
        eng.run_until_idle()
        stopped = (list(seen), eng.pending(), eng.now)
        eng.run_until_idle()  # resume: no events lost or duplicated
        return (stopped, seen, eng.pending())

    stopped, seen, pending = scenario(Engine())
    assert stopped == (["a", "stopper"], 2, 1.0)
    assert seen == ["a", "stopper", "b", "c"]
    assert pending == 0


def test_request_stop_then_new_same_time_events_keep_order():
    # events scheduled at the stop timestamp *during* the stopped batch
    # must run after the requeued remainder on resume (seq order).
    def scenario(eng):
        seen = []

        def stopper():
            seen.append("stopper")
            eng.schedule_after(0.0, lambda: seen.append("late-add"))
            eng.request_stop()

        eng.schedule(1.0, stopper)
        eng.schedule(1.0, lambda: seen.append("pending-tail"))
        eng.run_until_idle()
        eng.run_until_idle()
        return seen

    assert scenario(Engine()) == ["stopper", "pending-tail", "late-add"]


# ---------------------------------------------------------------------------
# bounded runs and supervision over buckets


def test_until_bound_stops_between_buckets():
    def scenario(eng):
        seen = []
        for when in (1.0, 2.0, 2.0, 3.0):
            eng.schedule(when, lambda w=when: seen.append(w))
        eng.run(until=2.0)
        mid = (list(seen), eng.now, eng.pending())
        eng.run_until_idle()
        return (mid, seen, eng.now)

    mid, seen, now = scenario(Engine())
    assert mid == ([1.0, 2.0, 2.0], 2.0, 1)
    assert seen == [1.0, 2.0, 2.0, 3.0]
    assert now == 3.0


def test_max_events_livelock_guard_matches():
    def scenario(eng):
        def forever():
            eng.schedule_after(1.0, forever)

        eng.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)
        return eng.events_processed

    assert scenario(Engine()) == 100


def test_stop_when_predicate_matches():
    def scenario(eng):
        seen = []
        for tick in range(10):
            eng.schedule(float(tick), lambda t=tick: seen.append(t))
        eng.run(stop_when=lambda: len(seen) >= 4)
        return (list(seen), eng.pending())

    assert scenario(Engine()) == ([0, 1, 2, 3], 6)


# ---------------------------------------------------------------------------
# pulse visits


def test_pulse_sees_flushed_counters_at_batch_boundaries():
    def scenario(eng):
        visits = []
        for when in range(1, 30):
            for _ in range(4):
                eng.schedule(float(when), lambda: None)
        eng.attach_pulse(
            lambda e: visits.append((e.now, e.events_processed)), every=8
        )
        eng.run_until_idle()
        eng.detach_pulse()
        return visits

    visits = scenario(Engine())
    assert visits  # the pulse actually fired
    for now, processed in visits:
        # counters are flushed before every visit, and visits happen
        # only between timestamps: an unbounded run's pulse never observes a
        # half-dispatched cycle, so the count is a multiple of the
        # 4-events-per-timestamp batch size.
        assert processed % 4 == 0 and processed > 0


def test_unpulsed_run_is_identical_to_pulsed():
    def scenario(eng):
        seen = []
        for when in range(1, 20):
            eng.schedule(float(when), lambda w=when: seen.append(w))
        eng.run_until_idle()
        return seen

    def pulsed(eng):
        seen = []
        for when in range(1, 20):
            eng.schedule(float(when), lambda w=when: seen.append(w))
        eng.attach_pulse(lambda e: None, every=4)
        eng.run_until_idle()
        eng.detach_pulse()
        return seen

    assert scenario(Engine()) == pulsed(Engine()) == list(range(1, 20))


def _pulse_visits(run):
    """``(now, events_processed)`` at every visit of an every-8 pulse
    over 40 timestamps of 3 events each, driven by ``run(engine)``."""
    eng = Engine()
    for when in range(1, 41):
        for _ in range(3):
            eng.schedule(float(when), lambda: None)
    visits = []
    eng.attach_pulse(lambda e: visits.append((e.now, e.events_processed)), every=8)
    run(eng)
    return visits, eng.now, eng.events_processed


# Report timelines sample wherever the pulse fires, so the visit points
# are pinned exactly (recorded from the engine before the scalar
# reference engine was deleted).  Unbounded runs visit between
# timestamps; bounded runs visit every ``every`` events, mid-bucket if
# need be; a caller watchdog carries the pulse on its own cadence.
_EVERY_8 = [(3.0, 8), (6.0, 16), (8.0, 24), (11.0, 32), (14.0, 40),
            (16.0, 48), (19.0, 56), (22.0, 64), (24.0, 72), (27.0, 80),
            (30.0, 88), (32.0, 96), (35.0, 104), (38.0, 112), (40.0, 120)]


def test_pulse_visits_unbounded_drain():
    assert _pulse_visits(lambda eng: eng.run()) == (
        [(float(3 * k), 9 * k) for k in range(1, 14)], 40.0, 120,
    )


def test_pulse_visits_ride_caller_watchdog():
    def run(eng):
        eng.attach_watchdog(Watchdog(check_every=5))
        eng.run()

    assert _pulse_visits(run) == (
        [(2.0, 5), (4.0, 10), (5.0, 15), (7.0, 20), (9.0, 25), (10.0, 30),
         (12.0, 35), (14.0, 40), (15.0, 45), (17.0, 50), (19.0, 55),
         (20.0, 60), (22.0, 65), (24.0, 70), (25.0, 75), (27.0, 80),
         (29.0, 85), (30.0, 90), (32.0, 95), (34.0, 100), (35.0, 105),
         (37.0, 110), (39.0, 115), (40.0, 120)],
        40.0,
        120,
    )


def test_pulse_visits_max_events_run():
    assert _pulse_visits(lambda eng: eng.run(max_events=1000)) == (
        _EVERY_8, 40.0, 120,
    )


def test_pulse_visits_until_run():
    assert _pulse_visits(lambda eng: eng.run(until=20.5)) == (
        _EVERY_8[:7], 20.5, 60,
    )


# ---------------------------------------------------------------------------
# exceptions: the queue survives a raising callback


# Each case drives one of the engine's two inner loops: an unbounded run
# takes the unchecked loop, a bounded run the checked loop.  The case ids
# keep the engine class names the cases once ran on.
@pytest.mark.parametrize(
    "drain",
    [
        pytest.param(lambda eng: eng.run(max_events=1000), id="BatchedEngine"),
        pytest.param(lambda eng: eng.run_until_idle(), id="Engine"),
    ],
)
def test_raising_callback_consumes_itself_and_preserves_rest(drain):
    eng = Engine()
    seen = []

    def boom():
        seen.append("boom")
        raise RuntimeError("deliberate")

    eng.schedule(1.0, lambda: seen.append("a"))
    eng.schedule(1.0, boom)
    eng.schedule(1.0, lambda: seen.append("b"))
    eng.schedule(2.0, lambda: seen.append("c"))
    with pytest.raises(RuntimeError):
        drain(eng)
    assert seen == ["a", "boom"]
    # the raising event is spent; the untouched remainder is intact and
    # a resumed drain dispatches it exactly once, in order.
    assert eng.pending() == 2
    drain(eng)
    assert seen == ["a", "boom", "b", "c"]
    assert eng.pending() == 0


# ---------------------------------------------------------------------------
# state introspection parity


def test_dump_state_matches_scalar_order():
    def scenario(eng):
        def early_a():  # distinct names so order is visible in the dump
            pass

        def early_b():
            pass

        def late():
            pass

        eng.schedule(5.0, late)
        eng.schedule(1.0, early_a, "x")
        eng.schedule(1.0, early_b)
        handle = eng.schedule(3.0, lambda: None)
        eng.cancel(handle)
        state = eng.dump_state()
        return [
            (e["when"], e["callback"].rsplit(".", 1)[-1])
            for e in state["upcoming"]
        ]

    assert scenario(Engine()) == [
        (1.0, "early_a"), (1.0, "early_b"), (5.0, "late"),
    ]


def test_pending_and_reset_parity():
    def scenario(eng):
        handles = [eng.schedule(float(t % 3), lambda: None) for t in range(9)]
        eng.cancel(handles[4])
        counts = (eng.pending(),)
        eng.reset()
        return counts + (eng.pending(), eng.now, eng.events_processed)

    assert scenario(Engine()) == (8, 0, 0.0, 0)


# ---------------------------------------------------------------------------
# machine-level identity (the Resource service chain under real traffic)


def test_machine_run_identical_across_drains():
    from repro.core.config import CedarConfig
    from repro.core.machine import CedarMachine
    from repro.kernels.programs import KERNELS, kernel_program

    machine = CedarMachine(CedarConfig())
    programs = {
        port: kernel_program(KERNELS["CG"], port, 2, prefetch=True)
        for port in range(4)
    }
    cycles = machine.run_programs(programs)
    stats = machine.ctx.stats()
    # the scalar reference engine's cycles, event count and counters.
    assert cycles == 841.0, "simulated cycles diverged"
    assert machine.engine.events_processed == 11948, "event counts diverged"
    assert stats["net.fwd"] == {
        "packets_delivered": 1536, "words_delivered": 1792,
        "rejected_offers": 0, "injection_rejections": 0,
    }
    assert stats["net.rev"] == {
        "packets_delivered": 1280, "words_delivered": 1280,
        "rejected_offers": 0, "injection_rejections": 0,
    }
    assert stats["gmem"] == {
        "reads": 1280, "writes": 256, "sync_ops": 0, "busy_cycles": 3072.0,
        "ecc_retries": 0, "sync_timeouts": 0,
    }
    assert [
        (stats[f"ce[{p}]"]["stall_cycles"], stats[f"ce[{p}]"]["finished_at"])
        for p in range(4)
    ] == [(128.0, 832.0), (131.0, 835.0), (134.0, 838.0), (137.0, 841.0)]
    assert [stats[f"pfu[{p}]"]["words_requested"] for p in range(4)] == [320] * 4
    # quiescence audit: the drained machine holds no packet, no service
    # slot, no blocked head and no waiter anywhere in its fabric.
    resources = []
    for net in (machine.forward_network, machine.reverse_network):
        resources += net.injection_ports
        resources += [link for stage in net.stages for link in stage]
    resources += machine.gmem.modules
    for res in resources:
        assert not res._queue and res.queued_words == 0, res.name
        assert not res._serving, res.name
        assert res._blocked_head is None and not res._waiters, res.name
    assert machine.engine.pending() == 0
    assert len(machine.engine._free) <= _FREE_LIST_MAX
