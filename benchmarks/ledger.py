"""Exact per-layer cost ledger: perfbench's deterministic counts,
compared with the committed ``benchmarks/ledger.json``.

For every workload of ``BENCHMARK.json`` this runs one traced round
(``perfbench/run.py --workload W --seed 3 --trace 1``) and keeps the
``per_layer`` metrics whose unit counts work exactly: ``count``,
``cyc``, ``events/ref`` and ``ratio``.  Host-time units (``s``, ``us``,
``x``) are dropped, and so are report bytes (``B``), whose report
carries wall-clock digits; ``tests/golden/reports/`` pins the report
content instead.

Every kept value must equal the ledger's.  ``*.calls`` are cProfile call
counts, which depend on the interpreter, so they are compared only when
the running Python's minor version is the one the ledger was written
with; the model counts are compared on every version.

The measured document is written to ``benchmarks/output/ledger.json``.
To accept a count change, copy it over ``benchmarks/ledger.json`` in the
same commit and say in the change log which counts moved and why.

Usage: ``python benchmarks/ledger.py`` (exit 0 = every count matches).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.json"
MEASURED = HERE / "output" / "ledger.json"

#: ``per_layer`` units that count simulated or interpreted work exactly.
EXACT_UNITS = ("count", "cyc", "events/ref", "ratio")


def judge(ledger: dict, results: dict, units: dict, python: str):
    """Select the exact counts of perfbench ``results`` (workload -> the
    run's last JSON line) by their ``units`` (metric -> unit) and diff
    them against ``ledger``.  Returns ``(measured document, problems,
    notices)``; any problem fails the gate."""
    exact = [name for name, unit in units.items() if unit in EXACT_UNITS]
    compare_calls = ledger.get("python") == python
    measured = {"python": python, "workloads": {}}
    problems, notices = [], []
    for workload, result in results.items():
        if not result.get("correct") or result.get("failed"):
            problems.append(f"{workload}: correct {result.get('correct')}, "
                            f"failed {result.get('failed')}")
            continue
        metrics = result.get("metrics", {})
        counts = measured["workloads"][workload] = {
            name: metrics[name]["value"] for name in exact if name in metrics}
        recorded = ledger.get("workloads", {}).get(workload, {})
        for name in exact:
            if name not in counts or name not in recorded:
                where = "the run" if name not in counts else "the ledger"
                problems.append(f"{workload} {name} missing from {where}")
            elif name.endswith(".calls") and not compare_calls:
                notices.append(f"{workload} {name} not compared "
                               f"(ledger python {ledger.get('python')}, "
                               f"running {python})")
            elif counts[name] != recorded[name]:
                problems.append(f"{workload} {name} {recorded[name]} -> {counts[name]}")
    return measured, problems, notices


def run_workload(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "failed": f"perfbench exit {done.returncode}"}
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"ledger: running {workload}", flush=True)
        results[workload] = run_workload(workload)
    measured, problems, notices = judge(
        json.loads(LEDGER.read_text()), results, units,
        "%d.%d" % sys.version_info[:2])
    MEASURED.parent.mkdir(exist_ok=True)
    MEASURED.write_text(json.dumps(measured, indent=1) + "\n")
    for line in notices + problems:
        print(line)
    if problems:
        print(f"ledger: {len(problems)} difference(s); measured counts in "
              f"{MEASURED.relative_to(ROOT)}")
        return 1
    print(f"ledger: every count matches {LEDGER.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
