"""Conservation audit: the standard monitors count what the components count.

The monitors derive every report number from signal payloads; the
components keep their own counters (``Resource.stats``, the memory
modules' access counts).  After a drained run the two must agree
exactly, link by link and module by module:

* ``net.<link>.packets`` / ``.words`` equal the link's
  ``stats.packets`` / ``stats.words``, and ``<link>.queue_words``
  ends at the link's ``queued_words``;
* each stage's busy ``Timeline`` holds the sum of its links'
  ``stats.busy_cycles``;
* ``gmem.module[i].services`` equals the module's reads + writes +
  sync ops, and ``gmem.module[i].words`` (request words serviced) the
  words the forward network's last stage delivered to module ``i``.
  The module's own ``stats.words`` counts the replies it sends, so it
  is not the comparison; and escape routing under faults delivers some
  requests through the reverse fabric, so the words law is checked on
  machines that rerouted nothing.
"""

import pytest

from repro.core.config import CedarConfig
from repro.core.context import add_context_observer, remove_context_observer
from repro.core.machine import CedarMachine
from repro.kernels.programs import KERNELS, kernel_program
from repro.monitor.report import ReportCollector
from repro.network.omega import OmegaNetwork


def _collected(run):
    """Run ``run()`` inside a ReportCollector; returns ``[(ctx,
    metrics snapshot)]``, one per machine built."""
    contexts = []
    observer = add_context_observer(contexts.append)
    try:
        with ReportCollector() as collector:
            run()
    finally:
        remove_context_observer(observer)
    snapshots = [record["metrics"] for record in collector.machine_dicts()]
    assert len(snapshots) == len(contexts)
    return list(zip(contexts, snapshots))


def _links(ctx):
    for _, component in ctx.components():
        if isinstance(component, OmegaNetwork):
            yield from component.injection_ports
            for stage in component.stages:
                yield from stage


def audit(ctx, snap):
    """Assert every conservation law on one machine; returns the number
    of links with traffic."""
    assert ctx.engine.pending() == 0, "the run did not drain"
    stages = {}
    audited = 0
    for link in _links(ctx):
        stage = "net." + link.name.split("[", 1)[0]
        stages[stage] = stages.get(stage, 0.0) + link.stats.busy_cycles
        if not link.stats.packets:
            continue
        audited += 1
        base = f"net.{link.name}"
        assert snap[f"{base}.packets"] == link.stats.packets, base
        assert snap[f"{base}.words"] == link.stats.words, base
        assert snap[f"{link.name}.queue_words"]["final"] == link.queued_words, base
    for stage, busy in stages.items():
        if busy:
            assert snap[stage]["busy_cycles"] == busy, stage
    modules = ctx.component("gmem").modules
    # requests address module ``i`` as destination port ``i``
    feeds = ctx.component("net.fwd").stages[-1]
    assert len(feeds) == len(modules)
    rerouted = "faults" in ctx and ctx.component("faults").rerouted
    for module, feed in zip(modules, feeds):
        base = f"gmem.module[{module.index}]"
        services = module.reads + module.writes + module.sync_ops
        assert snap.get(f"{base}.services", 0) == services, base
        if not rerouted:
            assert snap.get(f"{base}.words", 0) == feed.stats.words, base
    return audited


@pytest.mark.parametrize("prefetch", [True, False])
def test_kernel_machine_counters_conserved(prefetch):
    def run():
        machine = CedarMachine(CedarConfig(), monitor_port=0)
        machine.run_programs({
            port: kernel_program(KERNELS["CG"], port, 4, prefetch=prefetch)
            for port in range(8)
        })

    (machine,) = _collected(run)
    assert audit(*machine) > 0


def test_degradation_machines_counters_conserved():
    from repro.experiments.runner import clear_memoized_runs, experiment

    exp = experiment("degradation")
    clear_memoized_runs()
    machines = _collected(lambda: exp.runner(**exp.arguments(True)))
    assert len(machines) > 1
    assert all(audit(*machine) > 0 for machine in machines)
