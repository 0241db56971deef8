"""The benchmark's workloads: job lists, job execution and work counts.

A workload is a list of jobs made from the seed.  One pass over the list
is a *round*; the worker repeats rounds for the run's time budget.  Every
job builds its own machine, runs it, and returns an :class:`Outcome`
holding

* ``outputs`` - the simulated results the output check hashes;
* ``counts`` - exact per-layer work counts read after the run from
  ``ctx.stats()``, ``OmegaNetwork.stage_state_arrays()`` and
  ``GlobalMemory.module_state_arrays()``;
* ``refs`` - simulated memory references: global-memory reads, writes
  and sync ops plus cluster cache and cluster-memory packets.

Only the simulator's public entry points are used: ``CedarMachine``,
``run_programs``, ``ReportCollector`` and ``run_soak``.  Table 1's
GM/cache program generator is the one exception; it lives in
``repro.experiments.table1`` and has no public name.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import CedarConfig
from repro.core.context import add_context_observer, remove_context_observer
from repro.core.machine import CedarMachine
from repro.experiments.soak import run_soak
from repro.experiments.table1 import (
    CLUSTER_COUNTS,
    FLOPS_PER_A_STRIP,
    PAPER_TABLE1,
    _cache_version_program,
)
from repro.experiments.table2 import CE_COUNTS, KERNEL_ORDER, PAPER_TABLE2
from repro.kernels.programs import KERNELS, kernel_program
from repro.monitor.report import ReportCollector
from repro.util.units import cycles_to_seconds, mflops

WORKLOADS = ("kernels", "kernels-reported", "flood")

#: strips per CE for the Table 2 kernels (``run_table2`` uses 24).
KERNEL_STRIPS = 4
#: accumulator strips per CE for Table 1's GM/cache version (run_table1's default).
CACHE_A_STRIPS = 3
#: kernels-reported runs Table 2's 8-CE column: report collection costs
#: 5-9x bare, so the whole sweep would not repeat within a run.
REPORTED_CES = (8,)
#: flood: soaks per round and requests per soak (50,000 a round), 25% writes
#: (run_soak's default).  Ten short soaks rather than a few long ones give
#: the host-speed samples between jobs ten points in each round.
FLOOD_SOAKS = 10
FLOOD_REQUESTS = 5_000
#: the soak seeds a flood round draws from.  ``expected.json`` holds the
#: digest of every one, so the output check covers every ``--seed``.
FLOOD_SEED_POOL = tuple(range(1, 21))


@dataclass(frozen=True)
class Job:
    """One simulation: a Table 2 kernel run, a Table 1 GM/cache run, or a soak."""

    id: str
    kind: str  #: "kernel", "cache" or "soak"
    kernel: str = ""
    n_ces: int = 0
    prefetch: bool = True
    clusters: int = 0
    seed: int = 0
    reported: bool = False


@dataclass
class Outcome:
    job: Job
    wall_s: float
    refs: int
    outputs: Dict[str, object]
    counts: Dict[str, float]
    collect_s: float = 0.0
    report_bytes: int = 0
    resident_items: int = 0

    def digest(self) -> str:
        from hashlib import sha256

        blob = json.dumps(self.outputs, sort_keys=True).encode()
        return sha256(blob).hexdigest()[:16]


@dataclass
class Spans:
    """Spans the benchmark records around its own calls into a layer.

    Kept in memory; written out when the run ends.  ``parent`` is the
    index of the enclosing span, or ``None``.
    """

    records: List[dict] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.records)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


# -- job lists ---------------------------------------------------------------


def _kernel_jobs(ce_counts, reported: bool) -> List[Job]:
    return [
        Job(id=f"t2/{k}/{n}/{'pf' if pf else 'nopf'}", kind="kernel",
            kernel=k, n_ces=n, prefetch=pf, reported=reported)
        for k in KERNEL_ORDER for n in ce_counts for pf in (True, False)
    ]


def _soak_job(seed: int) -> Job:
    return Job(id=f"flood/{FLOOD_REQUESTS}/{seed}", kind="soak", seed=seed)


def all_jobs() -> List[Job]:
    """Every job any seed of any workload can run, once each."""
    return make_jobs("kernels", 0) + [_soak_job(s) for s in FLOOD_SEED_POOL]


def make_jobs(workload: str, seed: int) -> List[Job]:
    """The workload's job list for ``seed``.

    The paper's kernels fix their own addresses, so on ``kernels`` and
    ``kernels-reported`` the seed only permutes job order.  On ``flood``
    it chooses the soaks' arrival seeds from ``FLOOD_SEED_POOL``.
    """
    rng = random.Random(seed)
    if workload == "kernels":
        jobs = _kernel_jobs(CE_COUNTS, reported=False) + [
            Job(id=f"t1/cache/{c}", kind="cache", clusters=c)
            for c in CLUSTER_COUNTS
        ]
    elif workload == "kernels-reported":
        jobs = _kernel_jobs(REPORTED_CES, reported=True)
    elif workload == "flood":
        return [_soak_job(s) for s in rng.sample(FLOOD_SEED_POOL, FLOOD_SOAKS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs


# -- work counts ---------------------------------------------------------------


def _machine_counts(ctx) -> Tuple[int, Dict[str, float]]:
    """``(refs, per-layer counts)`` of one finished machine."""
    stats = ctx.stats()
    nets = [ctx.component(n) for n in ("net.fwd", "net.rev") if n in ctx]
    link_services = rejected = 0
    busy = blocked = 0.0
    for net in nets:
        stages = net.stage_state_arrays()
        inject = net.injection_state_arrays()
        link_services += int(stages["packets"].sum()) + int(inject["packets"].sum())
        rejected += (int(stages["rejected_offers"].sum())
                     + int(inject["rejected_offers"].sum()))
        busy += float(stages["busy_cycles"].sum())
        links = [r for stage in net.stages for r in stage] + net.injection_ports
        blocked += sum(r.stats.blocked_cycles for r in links)
    modules = ctx.component("gmem").module_state_arrays()
    counts = {
        "engine.events": ctx.engine.self_metrics()["events_processed"],
        "network.link_services": link_services,
        "network.busy_cycles": busy,
        "network.blocked_cycles": blocked,
        "network.rejected_offers": rejected,
        "gmemory.reads": int(modules["reads"].sum()),
        "gmemory.writes": int(modules["writes"].sum()),
        "gmemory.sync_ops": int(modules["sync_ops"].sum()),
        "gmemory.busy_cycles": float(modules["busy_cycles"].sum()),
        "prefetch.streams": 0,
        "prefetch.words": 0,
        "cluster.compute_cycles": 0.0,
        "cluster.stall_cycles": 0.0,
        "cluster.cache_packets": 0,
    }
    cluster_packets = 0
    for name, values in stats.items():
        if name.startswith("pfu["):
            counts["prefetch.streams"] += values["streams_fired"]
            counts["prefetch.words"] += values["words_requested"]
        elif name.startswith("ce["):
            counts["cluster.compute_cycles"] += values["compute_cycles"]
            counts["cluster.stall_cycles"] += values["stall_cycles"]
        elif name.startswith("cluster["):
            counts["cluster.cache_packets"] += values["cache_packets"]
            cluster_packets += values["cache_packets"] + values["cmem_packets"]
    refs = (counts["gmemory.reads"] + counts["gmemory.writes"]
            + counts["gmemory.sync_ops"] + cluster_packets)
    return refs, counts


def _outputs(cycles: float, refs: int, counts: Dict[str, float]) -> Dict[str, object]:
    keys = ("network.link_services", "network.rejected_offers",
            "network.busy_cycles", "network.blocked_cycles", "gmemory.reads",
            "gmemory.writes", "gmemory.sync_ops", "gmemory.busy_cycles")
    return {"cycles": cycles, "refs": refs, **{k: counts[k] for k in keys}}


# -- execution -------------------------------------------------------------------


def _run_machine_job(job: Job, spans: Spans) -> Outcome:
    config = CedarConfig()
    collector = ReportCollector().install() if job.reported else None
    start = time.perf_counter()
    try:
        with spans.span("machine.build", job=job.id):
            if job.kind == "kernel":
                machine = CedarMachine(config, monitor_port=0)
                programs = {
                    port: kernel_program(KERNELS[job.kernel], port, KERNEL_STRIPS,
                                         prefetch=job.prefetch)
                    for port in range(job.n_ces)
                }
            else:
                machine = CedarMachine(config)
                programs = {
                    port: _cache_version_program(port, CACHE_A_STRIPS)
                    for port in range(job.clusters * config.ces_per_cluster)
                }
        with spans.span("run_programs", job=job.id):
            cycles = machine.run_programs(programs)
    finally:
        machines: List[dict] = []
        if collector is not None:
            with spans.span("report.collect", job=job.id) as collect:
                collector.uninstall()
                machines = collector.machine_dicts()
    wall = time.perf_counter() - start
    with spans.span("output.check", job=job.id):
        refs, counts = _machine_counts(machine.ctx)
        outputs = _outputs(cycles, refs, counts)
        if machine.probe is not None:
            summary = machine.probe.summary()
            outputs["probe.blocks"] = summary.blocks
            outputs["probe.latency"] = summary.first_word_latency
            outputs["probe.interarrival"] = summary.interarrival
    outcome = Outcome(job, wall, refs, outputs, counts)
    if collector is not None:
        outcome.collect_s = collect["end"] - collect["start"]
        outcome.report_bytes = len(json.dumps(machines))
    return outcome


def _run_soak_job(job: Job, spans: Spans) -> Outcome:
    # A recording-only context observer: it keeps the machine that
    # run_soak builds so its counters can be read afterwards.  It
    # subscribes to no signal, so the simulated program is unchanged.
    contexts: list = []
    observer = add_context_observer(contexts.append)
    try:
        start = time.perf_counter()
        with spans.span("run_soak", job=job.id):
            result = run_soak(requests=FLOOD_REQUESTS, seed=job.seed)
        wall = time.perf_counter() - start
    finally:
        remove_context_observer(observer)
    with spans.span("output.check", job=job.id):
        (ctx,) = contexts
        refs, counts = _machine_counts(ctx)
        outputs = _outputs(result.cycles, refs, counts)
        outputs.update(
            requests=result.requests, completed=result.completed,
            incomplete=result.incomplete, aborted=result.aborted,
            p50=result.p50, p99=result.p99,
            reconciliation=result.reconciliation_worst,
        )
    outcome = Outcome(job, wall, refs, outputs, counts)
    outcome.resident_items = result.footprint_items or 0
    return outcome


def run_job(job: Job, spans: Spans) -> Outcome:
    if job.kind == "soak":
        return _run_soak_job(job, spans)
    return _run_machine_job(job, spans)


def job_failure(outcome: Outcome) -> Optional[str]:
    """A reason the job's own results are wrong, or ``None``."""
    out = outcome.outputs
    if outcome.job.kind == "soak":
        if out["aborted"]:
            return "watchdog aborted the soak"
        if out["completed"] != out["requests"] or out["incomplete"] > 0:
            return (f"completed {out['completed']} of {out['requests']}, "
                    f"{out['incomplete']} incomplete")
    if outcome.refs < 1:
        return "no memory references"
    return None


# -- accuracy against the paper ---------------------------------------------------


def paper_error_pct(outcomes: List[Outcome]) -> Optional[float]:
    """Mean relative error (%) of the Table 1/2 cells the jobs produce,
    against ``PAPER_TABLE1`` and ``PAPER_TABLE2``; ``None`` without cells."""
    by_id = {o.job.id: o for o in outcomes}
    errors: List[float] = []

    def _add(measured: float, paper: float) -> None:
        errors.append(abs(measured - paper) / paper)

    for kernel in KERNEL_ORDER:
        speedups, latencies, interarrivals = PAPER_TABLE2[kernel]
        for i, n in enumerate(CE_COUNTS):
            pf = by_id.get(f"t2/{kernel}/{n}/pf")
            nopf = by_id.get(f"t2/{kernel}/{n}/nopf")
            if pf is None or nopf is None:
                continue
            _add(nopf.outputs["cycles"] / pf.outputs["cycles"], speedups[i])
            _add(pf.outputs["probe.latency"], latencies[i])
            _add(pf.outputs["probe.interarrival"], interarrivals[i])
    config = CedarConfig()
    for i, clusters in enumerate(CLUSTER_COUNTS):
        job = by_id.get(f"t1/cache/{clusters}")
        if job is None:
            continue
        n_ces = clusters * config.ces_per_cluster
        seconds = cycles_to_seconds(job.outputs["cycles"], config.ce.cycle_ns)
        rate = mflops(FLOPS_PER_A_STRIP * CACHE_A_STRIPS * n_ces, seconds)
        _add(rate, PAPER_TABLE1["GM/cache"][i])
    return 100.0 * sum(errors) / len(errors) if errors else None


def first_machine(workload: str, seed: int) -> CedarMachine:
    """Set-up as a run does it: the job list, then the first machine."""
    jobs = make_jobs(workload, seed)
    monitor = 0 if jobs[0].kind == "kernel" else None
    return CedarMachine(CedarConfig(), monitor_port=monitor)
