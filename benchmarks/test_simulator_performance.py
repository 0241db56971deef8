"""Performance of the reproduction itself (proper pytest-benchmark
timing runs: these measure OUR code, not the paper's machine).

Regression guards for the hot paths: the event engine, the network
pipeline, the dependence tester, and the stability metric.
"""

import pytest

from repro.core.engine import Engine
from repro.core.config import CedarConfig
from repro.core.machine import CedarMachine
from repro.cluster.ce import AwaitStream, StartPrefetch
from repro.metrics.stability import stability
from repro.restructurer.parser import parse_loop
from repro.restructurer.pipeline import AUTOMATABLE_PIPELINE

def test_engine_event_throughput(benchmark):
    """Drain 20k events across 64 interleaved chains.

    64 concurrent chains keep the pending-event set at a realistic
    machine-simulation depth (CEs + PFUs + network resources all have
    events in flight); a single chain would only ever exercise a
    depth-1 queue.
    """

    def run():
        engine = Engine()
        count = {"n": 0}

        def tick():
            if count["n"] < 20_000:
                count["n"] += 1
                engine.schedule_after(1.0, tick)

        for worker in range(64):
            engine.schedule(worker / 64.0, tick)
        engine.run()
        return count["n"]

    assert benchmark(run) == 20_000


def test_prefetch_stream_simulation_rate(benchmark):
    """One CE streaming 512 words end to end through the full machine."""

    def run():
        machine = CedarMachine(CedarConfig())

        def prog():
            s = yield StartPrefetch(length=256, stride=1, address=0)
            yield AwaitStream(s)
            s = yield StartPrefetch(length=256, stride=1, address=512)
            yield AwaitStream(s)

        return machine.run_programs({0: prog()})

    cycles = benchmark(run)
    assert cycles > 0


def test_restructurer_throughput(benchmark):
    source = (
        "DO I = 1, 512\n"
        "T = X(I) * X(I)\n"
        "S = S + T\n"
        "W(1) = X(I)\n"
        "Y(I) = W(1) + T\n"
        "END DO"
    )

    def run():
        loop = parse_loop(source)
        return AUTOMATABLE_PIPELINE.restructure_loop(loop)

    verdict = benchmark(run)
    assert verdict.parallel


def test_stability_metric_speed(benchmark):
    values = [1.0 + (i * 37 % 101) for i in range(200)]

    def run():
        return stability(values, exclusions=6)

    st = benchmark(run)
    assert 0 < st <= 1
