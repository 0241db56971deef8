"""Command-line interface: regenerate the paper's artifacts.

Usage::

    python -m repro topology                 # Figures 1-2
    python -m repro table 1|2|3|4|5|6        # the evaluation tables
    python -m repro fig3                     # the efficiency scatter
    python -m repro ppt4                     # the scalability study
    python -m repro overheads                # Section 3.2 costs
    python -m repro characterization         # Section 4.1 anchors
    python -m repro degradation              # robustness fault-rate sweep
    python -m repro soak [--requests N]      # open-loop streaming soak
    python -m repro all [--fast]             # the paper's artifacts
    python -m repro run-all [NAMES...] [--jobs N] [--cached] [--fast]
                            [--timeout S] [--retries N] [--stream]
                            [--telemetry] [--telemetry-dir D]
                            [--heartbeat S] [--no-progress]
                                             # every registered experiment
    python -m repro compare A B [--stream] [--threshold T] [--all]
                                             # cross-run differential report
    python -m repro store verify [--repair] | repair | gc --max-bytes N | stats
                                             # result-store fsck and retention
    python -m repro trace EXPERIMENT --out trace.json [--timeline [N]]
                                             # Chrome/Perfetto trace
    python -m repro analyze EXPERIMENT [--out spans.json] [--top N] [--stream]
                                             # request-latency analysis
    python -m repro timeline EXPERIMENT [--interval N] [--out t.json]
                                             # interval metric timelines
    python -m repro profile EXPERIMENT [--top N] [--out p.json]
                                             # host wall-clock hotspots
    python -m repro report [EXPERIMENT] [--stream] [--interval N]
                                             # structured run reports

``--fast`` shrinks the cycle-level simulations to smoke size.

Failures are contained: an unknown experiment name or a failed run
prints a one-line ``error:`` to stderr and exits nonzero (no
traceback; set ``REPRO_DEBUG=1`` to re-raise).  ``run-all`` keeps
going past individual failures — it prints the partial results, lists
each failed artifact, and exits 1.

``run-all`` drives the full experiment registry (the paper artifacts
plus the studies and ablations), fanning independent experiments
across ``--jobs`` worker processes and, with ``--cached``, memoizing
results on disk keyed by experiment arguments and the machine
configuration hash.  It also writes one RunReport JSON per artifact
into ``--report-dir`` (default ``.repro-reports``; disable with
``--no-reports``).

``trace`` re-runs one experiment with a :class:`ChromeTracer` attached
to every machine it builds and writes a trace-event JSON openable in
https://ui.perfetto.dev or ``chrome://tracing``.

``analyze`` re-runs one experiment with a :class:`SpanCollector`
attached, prints the request-latency decomposition (per-phase and
per-stage tables, percentiles, bottleneck attribution, slowest-request
waterfalls), and with ``--out`` writes the stitched spans as JSON.

``timeline`` re-runs one experiment with a
:class:`~repro.monitor.timeline.MetricTimeline` riding each machine's
engine pulse, prints per-series sparkline timelines (events, link
busy cycles, queue depths, memory occupancy, fault rates per
interval), and with ``--out`` writes the timeline document(s) as JSON.
``trace --timeline`` folds the same series into the Chrome trace as
Perfetto counter tracks.

``profile`` runs one experiment under cProfile and attributes host
wall-clock self-time to Cedar subsystems (engine / network / gmemory /
monitor / ...), naming the frames that hold the events/sec plateau.

``report`` with an experiment name runs it instrumented and prints its
RunReport JSON; with no name it aggregates the report directory into a
summary table.  ``report EXPERIMENT --dir D`` instead *loads* the
collected report from ``D`` and errors (exit 1) when it was never
collected.

``run-all --telemetry`` records the fleet lifecycle (queued / started
/ heartbeat / retry / failed / completed events) as schema-versioned
JSONL under ``--telemetry-dir`` (default ``.repro-telemetry``), shows
live per-experiment progress (a repainting table on a TTY, plain
transition lines otherwise; ``--no-progress`` silences it), and turns
``--timeout`` into a *stall budget*: a worker is killed only after
that many seconds without heartbeat progress, so a slow-but-working
experiment survives while a hung one dies fast.

``compare`` diffs two runs' reports (files or report directories, or
``--stream`` merged spans documents) metric by metric, using the
paper's stability metric as the significance threshold, and exits
non-zero when the runs disagree — a ready-made CI perf gate.

``store`` maintains the sharded crash-safe result store behind
``run-all --cached``: ``verify`` fscks every entry (checksums, orphan
temps, stale locks, legacy flat files; exit 1 on inconsistency),
``repair`` (= ``verify --repair``) quarantines the corrupt and removes
the debris, ``gc --max-bytes N`` evicts oldest entries to a byte
budget, and ``stats`` summarizes the tree.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict

#: the registry slice that ``all`` has always printed, in order.
PAPER_SECTIONS = (
    "topology",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig3",
    "ppt4",
    "overheads",
    "characterization",
)


def _run_one(name: str, fast: bool = False) -> str:
    from repro.experiments.runner import run_experiment

    return run_experiment(name, fast=fast).output


def _topology(args) -> str:
    return _run_one("topology")


def _table(args) -> str:
    number = args.number
    if number not in range(1, 7):
        raise SystemExit(f"no table {number}; the paper has tables 1-6")
    return _run_one(f"table{number}", fast=args.fast)


def _fig3(args) -> str:
    return _run_one("fig3")


def _ppt4(args) -> str:
    return _run_one("ppt4")


def _overheads(args) -> str:
    return _run_one("overheads")


def _characterization(args) -> str:
    return _run_one("characterization")


def _scaling(args) -> str:
    return _run_one("scaling")


def _permutations(args) -> str:
    return _run_one("permutations")


def _multiprogramming(args) -> str:
    return _run_one("multiprogramming")


def _degradation(args) -> str:
    return _run_one("degradation", fast=args.fast)


def _soak(args) -> str:
    from repro.experiments.soak import render_soak, run_soak

    return render_soak(
        run_soak(
            requests=args.requests,
            seed=args.seed,
            stream=not args.buffered,
        )
    )


def _all(args) -> str:
    from repro.experiments.runner import render_all, run_all

    return render_all(run_all(names=PAPER_SECTIONS, fast=args.fast))


def _run_all(args) -> str:
    import json
    import os

    from repro.experiments.runner import DEFAULT_CACHE_DIR, run_all
    from repro.monitor.report import DEFAULT_REPORT_DIR

    cache_dir = None
    if args.cached:
        cache_dir = Path(args.cache_dir or DEFAULT_CACHE_DIR)
    collect = not args.no_reports

    telemetry = progress = None
    if args.telemetry:
        from repro.monitor.progress import make_progress
        from repro.monitor.telemetry import (
            DEFAULT_HEARTBEAT_S,
            DEFAULT_TELEMETRY_DIR,
            FleetTelemetry,
            TelemetrySink,
        )

        telemetry_dir = Path(args.telemetry_dir or DEFAULT_TELEMETRY_DIR)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        sink = TelemetrySink(telemetry_dir / f"run-{stamp}-{os.getpid()}.jsonl")
        if not args.no_progress:
            progress = make_progress(out=sys.stderr)
        telemetry = FleetTelemetry(
            sink=sink,
            on_event=progress.handle if progress is not None else None,
            heartbeat_s=args.heartbeat or DEFAULT_HEARTBEAT_S,
        )

    start = time.perf_counter()
    try:
        results = run_all(
            names=args.names or None,
            jobs=args.jobs,
            fast=args.fast,
            cache_dir=cache_dir,
            collect_reports=collect,
            timeout_s=args.timeout,
            retries=args.retries,
            stream=args.stream,
            telemetry=telemetry,
        )
    finally:
        if progress is not None:
            progress.close()
        if telemetry is not None:
            telemetry.close()
            print(
                f"[run-all] {telemetry.events} telemetry events -> "
                f"{telemetry.sink.path}",
                file=sys.stderr,
            )
    elapsed = time.perf_counter() - start

    if collect:
        report_dir = Path(args.report_dir or DEFAULT_REPORT_DIR)
        report_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for result in results:
            if result.report is not None:
                (report_dir / f"{result.name}.json").write_text(
                    json.dumps(result.report, indent=1)
                )
                written += 1
        print(f"[run-all] {written} run reports -> {report_dir}/", file=sys.stderr)

    sections = []
    for result in results:
        rule = "=" * 66
        if result.ok:
            origin = "cached" if result.cached else f"{result.elapsed_s:.1f}s"
            body = result.output
        else:
            origin = f"FAILED after {result.attempts} attempt(s)"
            body = f"error: {result.error}"
        sections.append(
            f"{rule}\n{result.name} — {result.title}  [{origin}]\n{rule}\n{body}"
        )
    hits = sum(1 for r in results if r.cached)
    failed = [r for r in results if not r.ok]
    print(
        f"[run-all] {len(results)} experiments in {elapsed:.1f}s "
        f"({hits} cached, {len(failed)} failed, jobs={args.jobs})",
        file=sys.stderr,
    )
    for result in failed:
        print(
            f"[run-all] FAILED {result.name}: {result.error} "
            f"({result.attempts} attempt(s))",
            file=sys.stderr,
        )
    text = "\n\n".join(sections)
    return (text, 1) if failed else text


def _trace(args) -> str:
    from repro.core.context import add_context_observer, remove_context_observer
    from repro.experiments.runner import clear_memoized_runs, experiment
    from repro.monitor.tracer import ChromeTracer, validate_chrome_trace

    exp = experiment(args.experiment)
    tracer = ChromeTracer()
    machines = {"n": 0}

    def _observe(ctx) -> None:
        # one scope per machine so several coexist in the same trace
        scope = f"m{machines['n']}:" if machines["n"] else ""
        machines["n"] += 1
        tracer.attach(ctx.bus, scope=scope)

    recorder = None
    if getattr(args, "timeline", None) is not None:
        from repro.monitor.timeline import TimelineRecorder

        recorder = TimelineRecorder(interval_cycles=args.timeline).install()
    clear_memoized_runs()  # memoized runs would build no machines
    observer = add_context_observer(_observe)
    try:
        exp.runner(**exp.arguments(args.fast))
    finally:
        remove_context_observer(observer)
        tracer.detach()
        if recorder is not None:
            recorder.uninstall()
    counter_note = ""
    if recorder is not None:
        docs = recorder.documents()
        for i, doc in enumerate(docs):
            tracer.ingest_timeline(doc, scope=f"m{i}:" if i else "")
        n_series = sum(len(d.get("series", {})) for d in docs)
        counter_note = f", {n_series} timeline counter track(s)"
    n_events, n_tracks = validate_chrome_trace(tracer.trace())
    tracer.write(args.out)
    return (
        f"wrote {args.out}: {n_events} events on {n_tracks} tracks from "
        f"{machines['n']} machine(s), {tracer.dropped} dropped{counter_note}\n"
        f"open in https://ui.perfetto.dev or chrome://tracing"
    )


def _timeline(args) -> str:
    import json

    from repro.experiments.runner import clear_memoized_runs, experiment
    from repro.monitor.analysis import timeline_report
    from repro.monitor.timeline import TimelineRecorder, validate_timeline

    exp = experiment(args.experiment)
    clear_memoized_runs()  # memoized runs would build no machines
    with TimelineRecorder(interval_cycles=args.interval) as recorder:
        exp.runner(**exp.arguments(args.fast))
    docs = recorder.documents()
    if not docs:
        raise SystemExit(
            f"experiment {args.experiment!r} built no machines to sample"
        )
    sections = []
    for i, doc in enumerate(docs):
        body = timeline_report(doc)
        sections.append(f"[machine {i}]\n{body}" if len(docs) > 1 else body)
    if args.out:
        n_series = n_intervals = 0
        for doc in docs:
            ns, ni = validate_timeline(doc)
            n_series += ns
            n_intervals += ni
        bundle = docs[0] if len(docs) == 1 else {"machines": docs}
        with open(args.out, "w") as fh:
            json.dump(bundle, fh)
        sections.append(
            f"wrote {args.out}: {n_series} series over {n_intervals} "
            f"interval(s) from {len(docs)} machine(s)"
        )
    return "\n\n".join(sections)


def _profile(args) -> str:
    import json

    from repro.experiments.runner import clear_memoized_runs, experiment
    from repro.monitor.profiler import profile_call, render_profile

    exp = experiment(args.experiment)
    kwargs = exp.arguments(args.fast)
    clear_memoized_runs()  # profile the simulation, not a memo replay
    profile, _output = profile_call(
        lambda: exp.runner(**kwargs),
        experiment=args.experiment,
        top=args.top,
    )
    sections = [render_profile(profile)]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(profile.to_dict(), fh, indent=1)
        sections.append(f"wrote {args.out}")
    return "\n\n".join(sections)


def _analyze(args) -> str:
    from repro.core.context import add_context_observer, remove_context_observer
    from repro.experiments.runner import clear_memoized_runs, experiment
    from repro.monitor.analysis import latency_report
    from repro.monitor.spans import LatencyAnalysis, SpanCollector, validate_spans

    exp = experiment(args.experiment)
    collectors = []

    if args.stream:
        from repro.monitor.streamstore import StreamingSpanStore

        def _observe(ctx) -> None:
            collectors.append(StreamingSpanStore().attach(ctx.bus))

    else:

        def _observe(ctx) -> None:
            collectors.append(SpanCollector().attach(ctx.bus))

    clear_memoized_runs()  # memoized runs would build no machines
    observer = add_context_observer(_observe)
    try:
        exp.runner(**exp.arguments(args.fast))
    finally:
        remove_context_observer(observer)
        for collector in collectors:
            collector.detach()
    if not collectors:
        raise SystemExit(
            f"experiment {args.experiment!r} built no machines to trace"
        )
    if args.stream:
        from repro.monitor.streamstore import (
            StreamingLatencyAnalysis,
            merge_streaming_docs,
        )

        analysis = StreamingLatencyAnalysis.from_stores(collectors)
        traced = analysis.requests
        docs = [c.spans() for c in collectors]
        incomplete = sum(d["incomplete"] for d in docs)
        dropped = analysis.dropped
        footprint = sum(c.tracing_footprint() for c in collectors)
        tail = (
            f"{traced} requests folded across {len(collectors)} machine(s)"
            f" ({incomplete} incomplete at sim end, {dropped} dropped, "
            f"{analysis.evicted} evicted; {footprint} resident traced items)"
        )
    else:
        spans = [s for c in collectors for s in c.complete_spans()]
        analysis = LatencyAnalysis(
            spans, dropped=sum(c.dropped for c in collectors)
        )
        incomplete = sum(len(c.incomplete_spans()) for c in collectors)
        tail = (
            f"{len(spans)} requests traced across {len(collectors)} machine(s)"
            f" ({incomplete} incomplete at sim end, {analysis.dropped} dropped)"
        )
    sections = [latency_report(analysis, top=args.top), tail]
    if args.out:
        import json

        if args.stream:
            doc = merge_streaming_docs(docs)
        elif len(collectors) == 1:
            doc = collectors[0].spans()
        else:
            docs = [c.spans() for c in collectors]
            doc = {
                "version": docs[0]["version"],
                "complete": sum(d["complete"] for d in docs),
                "incomplete": sum(d["incomplete"] for d in docs),
                "dropped": sum(d["dropped"] for d in docs),
                # request ids are process-wide unique, so machines merge
                "requests": [r for d in docs for r in d["requests"]],
            }
        n_requests, n_complete = validate_spans(doc)
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
        sections.append(
            f"wrote {args.out}: {n_requests} spans ({n_complete} complete)"
        )
    return "\n\n".join(sections)


def _report(args) -> str:
    import json

    from repro.monitor.report import DEFAULT_REPORT_DIR, render_report_summary

    if args.experiment is None:
        report_dir = Path(args.dir or DEFAULT_REPORT_DIR)
        reports = []
        for path in sorted(report_dir.glob("*.json")):
            try:
                reports.append(json.loads(path.read_text()))
            except ValueError:
                print(f"[report] skipping unreadable {path}", file=sys.stderr)
        if not reports:
            raise RuntimeError(
                f"no reports under {report_dir}/; run `python -m repro run-all` first"
            )
        return render_report_summary(reports)

    if args.dir is not None:
        # explicit --dir: *load* the collected report, never re-run
        path = Path(args.dir) / f"{args.experiment}.json"
        if not path.is_file():
            raise RuntimeError(
                f"no collected report for {args.experiment!r} under "
                f"{args.dir}/; run `python -m repro run-all "
                f"{args.experiment}` first"
            )
        return json.dumps(json.loads(path.read_text()), indent=1)

    from repro.experiments.runner import run_experiment

    result = run_experiment(
        args.experiment, fast=args.fast, collect_report=True,
        stream=args.stream, timeline=args.interval,
    )
    return json.dumps(result.report, indent=1)


def _store_cmd(args):
    from repro.store.cli import handle_store

    return handle_store(args)


def _compare(args) -> str:
    import json

    from repro.monitor.compare import (
        compare_reports,
        compare_streaming_docs,
        load_reports,
        render_compare,
    )

    if args.stream:
        docs = []
        for side in (args.a, args.b):
            path = Path(side)
            if not path.is_file():
                raise RuntimeError(
                    f"no spans document at {side}; write one with "
                    f"`python -m repro analyze EXP --stream --out {side}`"
                )
            docs.append(json.loads(path.read_text()))
        result = compare_streaming_docs(
            docs[0], docs[1], threshold=args.threshold
        )
    else:
        result = compare_reports(
            load_reports(args.a),
            load_reports(args.b),
            threshold=args.threshold,
        )
    text = render_compare(
        result,
        a_label=Path(args.a).name or str(args.a),
        b_label=Path(args.b).name or str(args.b),
        show_all=args.all,
    )
    return text if result.ok else (text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Cedar paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topology", help="Figures 1-2: machine organization")

    table = sub.add_parser("table", help="one of the paper's tables")
    table.add_argument("number", type=int, choices=range(1, 7))
    table.add_argument("--fast", action="store_true",
                       help="smoke-size cycle simulations")

    sub.add_parser("fig3", help="Figure 3: efficiency scatter")
    sub.add_parser("ppt4", help="Section 4.4 scalability study")
    sub.add_parser("overheads", help="Section 3.2 runtime costs")
    sub.add_parser("characterization", help="Section 4.1 memory anchors")
    sub.add_parser("scaling", help="Perfect-code scaling curves")
    sub.add_parser("permutations", help="omega-network permutation study")
    sub.add_parser("multiprogramming",
                   help="single-user-mode justification study")
    degradation = sub.add_parser(
        "degradation", help="robustness: performance vs injected fault rate"
    )
    degradation.add_argument("--fast", action="store_true",
                             help="smoke-size cycle simulations")
    soak = sub.add_parser(
        "soak", help="open-loop request flood under streaming observability"
    )
    soak.add_argument("--requests", type=int, default=1_000_000,
                      help="arrivals to inject (default 1000000)")
    soak.add_argument("--seed", type=int, default=7,
                      help="arrival-process seed (default 7)")
    soak.add_argument("--buffered", action="store_true",
                      help="use the buffered span collector instead of "
                           "the bounded-memory streaming store")

    everything = sub.add_parser("all", help="the paper's artifacts")
    everything.add_argument("--fast", action="store_true")

    run_all_cmd = sub.add_parser(
        "run-all", help="every registered experiment, parallel and cached"
    )
    run_all_cmd.add_argument("names", nargs="*", metavar="NAME",
                             help="experiments to run (default: all)")
    run_all_cmd.add_argument("--jobs", type=int, default=1,
                             help="worker processes (default 1)")
    run_all_cmd.add_argument("--timeout", type=float, default=None,
                             dest="timeout", metavar="S",
                             help="per-experiment budget in seconds: with "
                                  "--telemetry, a stall budget (killed only "
                                  "after S seconds without heartbeat "
                                  "progress); otherwise a flat wall-clock "
                                  "timeout")
    run_all_cmd.add_argument("--retries", type=int, default=0,
                             help="retries per failed experiment, with "
                                  "exponential backoff (default 0)")
    run_all_cmd.add_argument("--fast", action="store_true",
                             help="smoke-size cycle simulations")
    run_all_cmd.add_argument("--cached", action="store_true",
                             help="memoize results on disk")
    run_all_cmd.add_argument("--cache-dir", default=None,
                             help="cache directory (default .repro-cache)")
    run_all_cmd.add_argument("--report-dir", default=None,
                             help="run-report directory (default .repro-reports)")
    run_all_cmd.add_argument("--no-reports", action="store_true",
                             help="skip run-report collection")
    run_all_cmd.add_argument("--stream", action="store_true",
                             help="collect run reports through the "
                                  "bounded-memory streaming span store")
    run_all_cmd.add_argument("--telemetry", action="store_true",
                             help="record fleet lifecycle events as JSONL "
                                  "and stream worker heartbeats (turns "
                                  "--timeout into a stall budget)")
    run_all_cmd.add_argument("--telemetry-dir", default=None, metavar="DIR",
                             help="lifecycle-event sink directory "
                                  "(default .repro-telemetry)")
    run_all_cmd.add_argument("--heartbeat", type=float, default=None,
                             metavar="S",
                             help="worker heartbeat interval in seconds "
                                  "(default 0.25)")
    run_all_cmd.add_argument("--no-progress", action="store_true",
                             help="suppress the live progress renderer "
                                  "(telemetry JSONL is still written)")

    trace = sub.add_parser(
        "trace", help="run one experiment and write a Chrome/Perfetto trace"
    )
    trace.add_argument("experiment", help="registered experiment name")
    trace.add_argument("--out", default="trace.json",
                       help="output path (default trace.json)")
    trace.add_argument("--fast", action="store_true",
                       help="smoke-size cycle simulations")
    trace.add_argument("--timeline", type=float, nargs="?", const=64.0,
                       default=None, metavar="CYCLES",
                       help="also record interval metric timelines and "
                            "fold them in as Perfetto counter tracks "
                            "(sampling interval in simulated cycles, "
                            "default 64)")

    timeline_cmd = sub.add_parser(
        "timeline",
        help="run one experiment with interval metric sampling and "
             "print sparkline timelines",
    )
    timeline_cmd.add_argument("experiment", help="registered experiment name")
    timeline_cmd.add_argument("--interval", type=float, default=64.0,
                              metavar="CYCLES",
                              help="sampling interval in simulated cycles "
                                   "(default 64; intervals coalesce by "
                                   "powers of two on long runs)")
    timeline_cmd.add_argument("--out", default=None, metavar="TIMELINE_JSON",
                              help="also write the timeline document(s) "
                                   "as JSON")
    timeline_cmd.add_argument("--fast", action="store_true",
                              help="smoke-size cycle simulations")

    profile_cmd = sub.add_parser(
        "profile",
        help="run one experiment under cProfile and attribute host "
             "time to subsystems",
    )
    profile_cmd.add_argument("experiment", help="registered experiment name")
    profile_cmd.add_argument("--top", type=int, default=15,
                             help="hottest frames to show (default 15)")
    profile_cmd.add_argument("--out", default=None, metavar="PROFILE_JSON",
                             help="also write the profile document as JSON")
    profile_cmd.add_argument("--fast", action="store_true",
                             help="smoke-size cycle simulations")

    analyze = sub.add_parser(
        "analyze",
        help="run one experiment and print its request-latency decomposition",
    )
    analyze.add_argument("experiment", help="registered experiment name")
    analyze.add_argument("--out", default=None, metavar="SPANS_JSON",
                         help="also write the stitched spans as JSON")
    analyze.add_argument("--top", type=int, default=5,
                         help="slowest-request waterfalls to show (default 5)")
    analyze.add_argument("--fast", action="store_true",
                         help="smoke-size cycle simulations")
    analyze.add_argument("--stream", action="store_true",
                         help="bounded-memory streaming collection: fold "
                              "each request into quantile sketches on "
                              "completion instead of buffering every span")

    compare = sub.add_parser(
        "compare",
        help="differential report between two runs (exits 1 on regression)",
    )
    compare.add_argument("a", metavar="A",
                         help="baseline: report file/directory, or a "
                              "streaming spans JSON with --stream")
    compare.add_argument("b", metavar="B",
                         help="candidate: report file/directory, or a "
                              "streaming spans JSON with --stream")
    compare.add_argument("--stream", action="store_true",
                         help="compare merged streaming spans documents "
                              "(per-sketch, per-quantile deltas)")
    compare.add_argument("--threshold", type=float, default=0.98,
                         metavar="T",
                         help="stability (min/max) below which a delta is "
                              "significant (default 0.98, i.e. >2%% swing)")
    compare.add_argument("--all", action="store_true",
                         help="show every compared metric, not just the "
                              "significant ones")

    report = sub.add_parser(
        "report", help="structured run reports (one experiment or the fleet)"
    )
    report.add_argument("experiment", nargs="?", default=None,
                        help="experiment to run instrumented; omit to "
                             "aggregate the report directory")
    report.add_argument("--fast", action="store_true",
                        help="smoke-size cycle simulations")
    report.add_argument("--dir", default=None,
                        help="report directory to aggregate "
                             "(default .repro-reports)")
    report.add_argument("--stream", action="store_true",
                        help="collect through the bounded-memory "
                             "streaming span store")
    report.add_argument("--interval", type=float, default=None,
                        metavar="CYCLES",
                        help="also collect interval metric timelines at "
                             "this sampling width (adds a timeline "
                             "section per machine record)")

    from repro.store.cli import add_store_parser

    add_store_parser(sub)
    return parser


HANDLERS: Dict[str, Callable] = {
    "topology": _topology,
    "table": _table,
    "fig3": _fig3,
    "ppt4": _ppt4,
    "overheads": _overheads,
    "characterization": _characterization,
    "scaling": _scaling,
    "permutations": _permutations,
    "multiprogramming": _multiprogramming,
    "degradation": _degradation,
    "soak": _soak,
    "all": _all,
    "run-all": _run_all,
    "trace": _trace,
    "timeline": _timeline,
    "profile": _profile,
    "analyze": _analyze,
    "report": _report,
    "compare": _compare,
    "store": _store_cmd,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "fast"):
        args.fast = False
    try:
        outcome = HANDLERS[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - one-line errors, no traceback
        import os

        if os.environ.get("REPRO_DEBUG"):
            raise
        # a KeyError's str() wraps the message in quotes; unwrap it
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return 1
    if isinstance(outcome, tuple):
        text, code = outcome
    else:
        text, code = outcome, 0
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
