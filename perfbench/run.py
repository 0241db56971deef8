"""Run one workload of the Cedar simulator benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

Workloads are ``kernels``, ``kernels-reported`` and ``flood`` (see
``perfbench/README.md``).  The run

1. starts one fresh process (``worker.py``) that measures the workload;
2. with ``--trace 0``, starts ``SETUP_PROBES`` fresh processes, half before
   and half after the measured one, that import ``repro``, make the inputs
   and build the first machine; ``setup_s`` is the median time from process
   start until that machine is ready;
3. prints every metric with its unit, the provenance of the run, and, as
   the last line, ``{"correct", "attempted", "failed", "metrics"}`` with
   the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
   ``per_layer`` metrics (``--trace 1``);
4. appends the full record to ``perfbench/out/results.jsonl``.

It exits with a non-zero code, printing no result, when the checkout has
no simulator source or a process fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: set-up probes per run, half before and half after the measured run, so
#: that the median spans the run's time rather than one moment of the host.
SETUP_PROBES = 8
#: host-speed sampling before and after each probe, in seconds.
PROBE_CALIBRATION_S = 0.05
#: every run, set-up probes included, must end within this many seconds.
RUN_LIMIT_S = 175.0


class BenchError(Exception):
    pass


def _fresh_env() -> Dict[str, str]:
    """The environment of the measured processes: the default engine
    (no ``CEDAR_BATCHED``) and no inherited ``PYTHONPATH``."""
    env = dict(os.environ)
    env.pop("CEDAR_BATCHED", None)
    env.pop("PYTHONPATH", None)
    return env


def _worker_args(args) -> List[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f}s")
    return left


def measure_setup(args, deadline: float) -> List[Tuple[float, float]]:
    """Cold set-up times, process start until the first machine is ready,
    each with the host-speed scale sampled around it."""
    samples = []
    for _ in range(SETUP_PROBES // 2):
        calibration: List[float] = []
        hostspeed.sample_for(PROBE_CALIBRATION_S, calibration)
        start = time.perf_counter()
        with subprocess.Popen(_worker_args(args) + ["--setup-probe"],
                              stdout=subprocess.PIPE, text=True,
                              env=_fresh_env(), cwd=ROOT) as probe:
            line = probe.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            try:
                code = probe.wait(timeout=_remaining(deadline))
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
                raise BenchError("set-up probe did not exit") from None
        if line != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
        hostspeed.sample_for(PROBE_CALIBRATION_S, calibration)
        samples.append((elapsed, hostspeed.scale(calibration)))
    return samples


def run_worker(args, deadline: float) -> dict:
    command = _worker_args(args) + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=_fresh_env(), cwd=ROOT,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("measured run did not finish in time") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"measured run failed (exit {done.returncode})")
    return json.loads(lines[-1])


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> Optional[str]:
    """The checkout's commit; ``None`` when it is not a git clone.  Git is
    pointed at the checkout's own ``.git`` so it never searches above it."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(worker: dict) -> dict:
    return {
        "commit": _commit(),
        **worker["provenance"],
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "CEDAR_BATCHED": os.environ.get("CEDAR_BATCHED"),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernels", "kernels-reported", "flood"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    # one CPU for every process of the run, so that host-speed samples and
    # the work they scale see the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        setup = measure_setup(args, deadline) if not args.trace else []
        worker = run_worker(args, deadline)
        if not args.trace:
            setup += measure_setup(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = dict(worker["metrics"])
    host = dict(worker["host"])
    if setup:
        host["setup_s"] = statistics.median(t for t, _ in setup)
        values["setup_s"] = statistics.median(t * scale for t, scale in setup)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {
        **{k: worker[k] for k in ("workload", "seed", "trace", "rounds", "correct",
                                  "attempted", "failed", "failures",
                                  "paper_err_pct", "digests", "job_walls")},
        "setup_samples": setup,
        "metrics": metrics,
        "host": host,
        "provenance": provenance(worker),
    }
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "results.jsonl", "a") as results:
        results.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {worker['rounds']}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_frac':<28} {worker['failed'] / worker['attempted']:>16.6g} ratio")
    for name, value in host.items():
        print(f"  {'host.' + name:<28} {value:>16.6g} {'' if 'scale' in name else 's'}")
    if worker["paper_err_pct"] is not None:
        print(f"  {'paper_err_pct':<28} {worker['paper_err_pct']:>16.6g} %")
    for failure in worker["failures"]:
        print(f"  FAILED {failure}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
