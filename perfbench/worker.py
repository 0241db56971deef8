"""One measured run of a workload, in a fresh process.

``run.py`` starts this file twice over: as a set-up probe
(``--setup-probe``: import, make the inputs, build the first machine,
print ``ready``, exit) and once as the measured run.  The run repeats
rounds of the workload's jobs and prints one JSON record as its last
line of standard output.

* ``--trace 0`` repeats untraced rounds until ``--seconds`` have passed.
  A job's host time is its median over the rounds; ``wall_s`` sums them
  and scales the sum to reference seconds (``hostspeed``).
* ``--trace 1`` runs one untraced round, for the exact counts and the
  untraced wall time, then the same round under cProfile.  Self time and
  calls are attributed to layers (packages of ``repro``) with
  ``repro.monitor.profiler.frame_subsystem``.

Every job's simulated outputs are hashed and compared with the digest
``expected.json`` holds for the job.  ``--record`` rewrites that file
from one run of every job; do that only for a change meant to alter
simulated results.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: layers reported on their own; other frame_subsystem buckets fold into "other".
LAYERS = ("engine", "network", "gmemory", "prefetch", "cluster", "monitor",
          "core", "kernels", "experiments")
#: how far the traced self-time sum may sit from the traced wall time.
SELF_TIME_TOLERANCE = 0.10
#: round totals that hold host times (the report records carry wall-clock
#: fields), so the traced and untraced rounds need not agree on them.
HOST_DEPENDENT = {"monitor.collect_s", "monitor.report_bytes"}


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    ``repro`` imported is the one in it."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _run_round(jobs, spans, failures: List[str],
               calibration: Optional[List[float]] = None):
    """Run every job once.  With ``calibration``, sample host speed
    after each job into it."""
    from workloads import job_failure, run_job

    outcomes = []
    for job in jobs:
        gc.collect()  # charge no job for the garbage of the one before
        start = time.perf_counter()
        try:
            outcome = run_job(job, spans)
        except Exception as exc:  # a failed job is counted, not fatal
            failures.append(f"{job.id}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if calibration is not None:
                hostspeed.sample_after(time.perf_counter() - start, calibration)
        reason = job_failure(outcome)
        if reason is not None:
            failures.append(f"{job.id}: {reason}")
            continue
        outcomes.append(outcome)
    return outcomes


def _check_digests(rounds, expected: Dict[str, str],
                   failures: List[str]) -> Dict[str, str]:
    """Every outcome's digest must equal its job's digest in ``expected``;
    each one that does not counts as a failed job.  Returns the digests
    seen."""
    seen: Dict[str, str] = {}
    for outcomes in rounds:
        for outcome in outcomes:
            job_id, digest = outcome.job.id, outcome.digest()
            want = expected.get(job_id)
            if digest != want:
                failures.append(f"{job_id}: outputs {digest}, expected {want}")
            seen[job_id] = digest
    return seen


def _round_counts(outcomes) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for outcome in outcomes:
        for name, value in outcome.counts.items():
            totals[name] = totals.get(name, 0) + value
    probed = [o.outputs for o in outcomes if o.outputs.get("probe.blocks")]
    totals["prefetch.first_word_cyc"] = (
        statistics.fmean(p["probe.latency"] for p in probed) if probed else 0.0)
    totals["prefetch.interarrival_cyc"] = (
        statistics.fmean(p["probe.interarrival"] for p in probed) if probed else 0.0)
    totals["refs"] = sum(o.refs for o in outcomes)
    totals["monitor.collect_s"] = sum(o.collect_s for o in outcomes)
    totals["monitor.report_bytes"] = sum(o.report_bytes for o in outcomes)
    totals["monitor.resident_items"] = max(
        (o.resident_items for o in outcomes), default=0)
    return totals


def _layer_profile(profiler: cProfile.Profile):
    """``({layer: self seconds}, {layer: calls})`` from one profile."""
    from repro.monitor.profiler import frame_subsystem

    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls = dict.fromkeys(self_s, 0)
    for (filename, _line, _fn), (_cc, ncalls, tottime, _ct, _callers) in (
            pstats.Stats(profiler).stats.items()):
        layer = frame_subsystem(filename)
        layer = layer if layer in self_s else "other"
        self_s[layer] += tottime
        calls[layer] += ncalls
    return self_s, calls


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import Spans, make_jobs, paper_error_pct

    jobs = make_jobs(workload, seed)
    spans = Spans()
    failures: List[str] = []  # one per failed job run
    errors: List[str] = []  # checks on the run as a whole
    rounds = []
    calibration: List[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(_run_round(jobs, spans, failures,
                                 None if trace else calibration))
        round_wall = time.perf_counter() - round_start
        if trace or time.perf_counter() - start >= seconds:
            break
    attempted = len(jobs) * len(rounds)
    untraced = rounds[0]

    metrics: Dict[str, float] = {}
    host: Dict[str, float] = {}  # raw host figures behind scaled metrics
    per_job: Dict[str, List[float]] = {}
    for outcomes in rounds:
        for outcome in outcomes:
            per_job.setdefault(outcome.job.id, []).append(outcome.wall_s)
    if trace:
        profiler = cProfile.Profile()
        traced_start = time.perf_counter()
        profiler.enable()
        traced = _run_round(jobs, spans, failures)
        profiler.disable()
        traced_wall = time.perf_counter() - traced_start
        attempted += len(jobs)
        rounds.append(traced)
        counts = _round_counts(untraced)
        traced_counts = _round_counts(traced)
        for name in counts.keys() - HOST_DEPENDENT:
            if counts[name] != traced_counts[name]:
                errors.append(f"traced run: {name} {traced_counts[name]} "
                              f"!= untraced {counts[name]}")
        self_s, calls = _layer_profile(profiler)
        attributed = sum(self_s.values())
        if abs(attributed - traced_wall) > SELF_TIME_TOLERANCE * traced_wall:
            errors.append(f"traced run: layer self time {attributed:.3f}s "
                          f"vs wall {traced_wall:.3f}s")
        refs = counts["refs"]
        metrics.update(counts)
        metrics["engine.events_per_ref"] = counts["engine.events"] / refs
        services = counts["network.link_services"]
        metrics["network.offer_accept_ratio"] = services / (
            services + counts["network.rejected_offers"])
        for layer in self_s:
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.us_per_ref"] = 1e6 * self_s[layer] / refs
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_x"] = traced_wall / round_wall
    else:
        host["wall_s"] = sum(statistics.median(t) for t in per_job.values())
        host["scale"] = hostspeed.scale(calibration)
        metrics["wall_s"] = host["wall_s"] * host["scale"]
        metrics["refs_per_s"] = sum(o.refs for o in untraced) / metrics["wall_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = json.loads(EXPECTED.read_text())
    digests = _check_digests(rounds, expected["jobs"], failures)

    paper_err: Optional[float] = paper_error_pct(untraced)
    want = expected["paper_err_pct"].get(workload)
    if want is not None and (paper_err is None or round(paper_err, 9) != want):
        errors.append(f"paper_err_pct {paper_err}, expected {want}")

    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    for record in spans.records:
        record["start"] -= start
        record["end"] -= start
    (OUT / f"spans-{tag}.json").write_text(json.dumps(spans.records))

    import numpy

    from repro.core.engine import make_engine

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures + errors,
        "paper_err_pct": paper_err,
        "metrics": metrics,
        "digests": digests,
        "job_walls": per_job,
        "host": host,
        "provenance": {
            "source_sha": source_sha(),
            "numpy": numpy.__version__,
            "engine": type(make_engine()).__name__,
        },
    }


def record_expected() -> None:
    """Rewrite ``expected.json`` from one untraced run of every job."""
    from workloads import Spans, all_jobs, make_jobs, paper_error_pct

    failures: List[str] = []
    outcomes = _run_round(all_jobs(), Spans(), failures)
    if failures:
        raise SystemExit("cannot record: " + "; ".join(failures))
    paper_err = {}
    for workload in ("kernels", "kernels-reported"):
        ids = {job.id for job in make_jobs(workload, 0)}
        paper_err[workload] = round(
            paper_error_pct([o for o in outcomes if o.job.id in ids]), 9)
    jobs = {o.job.id: o.digest() for o in outcomes}
    EXPECTED.write_text(json.dumps({"jobs": jobs, "paper_err_pct": paper_err},
                                   indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    import_repro()
    if args.record:
        record_expected()
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.setup_probe:
        from workloads import first_machine

        first_machine(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
