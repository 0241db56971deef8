"""Run reports stay byte-identical to their committed goldens.

``tests/golden/reports/<name>.json`` holds what a default
:class:`~repro.monitor.report.ReportCollector` records for the machines
of one run: ``machine_dicts()`` with the engine's two wall-clock fields
(``events_per_sec``, ``run_wall_s``) removed.  Everything left is
simulated: cycles, event counts, the monitors' metrics snapshot and the
buffered latency summary.

The runs are the ``--fast`` experiments that carry request traffic
(characterization, degradation, soak), plus one 1-cluster Table 1
GM/cache machine, the cheapest traffic that reaches the cluster
monitors (``cluster.access``).

The comparison is on the serialised text, not the parsed dicts, so the
order of the snapshot's keys is pinned as well as their values.

``python tests/test_report_golden.py --write [names...]`` (re)creates
the files.  A golden change is a behaviour change: rewrite one only
when the reports are meant to record something different.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "reports"

#: the fast experiments whose machines carry request traffic.
EXPERIMENTS = ("characterization", "degradation", "soak")

#: the Table 1 GM/cache machine: one cluster, one accumulator strip.
CACHE_MACHINE = "table1-gm-cache-1cluster"

NAMES = EXPERIMENTS + (CACHE_MACHINE,)

#: engine self-metrics measured in host time.
_WALL_CLOCK = ("events_per_sec", "run_wall_s")


def _run(name):
    from repro.core.config import CedarConfig
    from repro.core.machine import CedarMachine
    from repro.experiments.runner import clear_memoized_runs, experiment
    from repro.experiments.table1 import _cache_version_program

    if name == CACHE_MACHINE:
        config = CedarConfig()
        machine = CedarMachine(config)
        machine.run_programs({
            port: _cache_version_program(port, 1)
            for port in range(config.ces_per_cluster)
        })
        return
    exp = experiment(name)
    clear_memoized_runs()  # memoized runs would build no machines
    exp.runner(**exp.arguments(True))


def render(name):
    """The golden document for ``name`` as JSON text."""
    from repro.monitor.report import ReportCollector

    with ReportCollector() as collector:
        _run(name)
    machines = collector.machine_dicts()
    for machine in machines:
        for key in _WALL_CLOCK:
            del machine["engine"][key]
    return json.dumps(machines, indent=1) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    actual = render(name)
    if actual != expected:
        import difflib

        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"tests/golden/reports/{name}.json",
            tofile=f"{name} (rendered)",
        )
        pytest.fail("".join(list(diff)[:200]))


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--write" not in args:
        sys.exit("usage: test_report_golden.py --write [names...]")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in [a for a in args if not a.startswith("--")] or NAMES:
        (GOLDEN_DIR / f"{name}.json").write_text(render(name))
        print(f"wrote {GOLDEN_DIR / f'{name}.json'}")
