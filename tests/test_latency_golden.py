"""Latency analyses stay byte-identical to their committed goldens.

``tests/golden/latency/<name>.json`` holds, for the experiments that
trace requests, what the span collectors and the latency analysis make
of a ``--fast`` run in four configurations: buffered and streaming,
each tracing every request and one in four.  Per machine it records
``summary()``, ``stage_decomposition()`` and the spans-document counts;
across machines, the merged ``latency_report()`` text with request ids
normalised (ids come from a process-wide counter).

Both full collectors observe one run and both sampled collectors a
second, so each pair sees identical traffic.

``python tests/test_latency_golden.py --write [names...]`` (re)creates
the files.  A golden change is a behaviour change: rewrite one only
when the analysis is meant to compute something different.
"""

import json
import re
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "latency"

#: the fast experiments whose machines carry request traffic.
NAMES = ("characterization", "degradation", "soak")

#: one in ``SAMPLE_EVERY`` requests is traced in the sampled runs.
SAMPLE_EVERY = 4

_COUNTS = ("complete", "incomplete", "dropped", "evicted", "sampled_out")
_REQUEST_ID = re.compile(r"#\d+ +")


def _observed_run(name, every):
    """Run ``name`` at fast size with a buffered and a streaming
    collector on every machine; returns ``(buffered, streaming)`` lists."""
    from repro.core.context import add_context_observer, remove_context_observer
    from repro.experiments.runner import clear_memoized_runs, experiment
    from repro.monitor.spans import SpanCollector

    exp = experiment(name)
    pairs = []

    def observe(ctx):
        pairs.append((
            SpanCollector(every=every).attach(ctx.bus),
            SpanCollector(every=every, stream=True).attach(ctx.bus),
        ))

    clear_memoized_runs()  # memoized runs would build no machines
    observer = add_context_observer(observe)
    try:
        exp.runner(**exp.arguments(True))
    finally:
        remove_context_observer(observer)
        for pair in pairs:
            for collector in pair:
                collector.detach()
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _section(collectors):
    from repro.monitor.analysis import latency_report
    from repro.monitor.spans import LatencyAnalysis

    machines = []
    for collector in collectors:
        analysis = LatencyAnalysis.from_collectors([collector])
        doc = collector.spans()
        machines.append({
            "summary": analysis.summary(),
            "stages": analysis.stage_decomposition(),
            "counts": {key: doc.get(key) for key in _COUNTS},
        })
    report = latency_report(LatencyAnalysis.from_collectors(collectors))
    return {"machines": machines, "report": _REQUEST_ID.sub("#<id> ", report)}


def render(name):
    """The golden document for ``name`` as JSON text."""
    doc = {}
    for every in (1, SAMPLE_EVERY):
        buffered, streaming = _observed_run(name, every)
        doc[f"buffered-every{every}"] = _section(buffered)
        doc[f"streaming-every{every}"] = _section(streaming)
    ordered = {
        f"{mode}-every{every}": doc[f"{mode}-every{every}"]
        for mode in ("buffered", "streaming")
        for every in (1, SAMPLE_EVERY)
    }
    return json.dumps(ordered, indent=1) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_latency_analysis_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    actual = render(name)
    if actual != expected:
        import difflib

        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"tests/golden/latency/{name}.json",
            tofile=f"{name} (rendered)",
        )
        pytest.fail("".join(list(diff)[:200]))


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--write" not in args:
        sys.exit("usage: test_latency_golden.py --write [names...]")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in [a for a in args if not a.startswith("--")] or NAMES:
        (GOLDEN_DIR / f"{name}.json").write_text(render(name))
        print(f"wrote {GOLDEN_DIR / f'{name}.json'}")
