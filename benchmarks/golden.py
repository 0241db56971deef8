"""Golden-output check: every registered experiment's rendered report,
byte-for-byte against the committed file under ``tests/golden/``.

Simulated results are deterministic, so a refactor that leaves the
simulation alone leaves every rendered artifact unchanged.  This
harness is that contract's enforcement: it renders each registered
experiment at ``--fast`` smoke sizes and diffs the text against
``tests/golden/<name>.txt``.  Any divergence prints a unified diff and
fails the run; CI's ``golden`` job calls this on every push, and the
tier-1 suite checks the cheap experiments (``tests/test_golden.py``).

No rendered report carries host timing, so the text is compared as
rendered, with nothing normalised out.

Each render starts from cleared in-process memos, so a golden does not
depend on which experiments ran before it in the same process.

``--write`` (re)creates the golden files.  A golden change is a
behaviour change: rewrite one only when the simulation is *meant* to
compute something different, and say so in the change log.

Usage: ``python benchmarks/golden.py [--write] [names...]`` (default:
every registered experiment; exit 0 = all identical).
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

#: the committed goldens, one ``<experiment>.txt`` per registered name.
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def render(name: str) -> str:
    """``name``'s report at ``--fast`` sizes."""
    from repro.experiments.runner import clear_memoized_runs, experiment

    clear_memoized_runs()
    exp = experiment(name)
    return exp.runner(**exp.arguments(fast=True))


def check(name: str) -> list:
    """Render ``name`` and diff it against its golden; return the diff
    lines (empty = identical)."""
    actual = render(name)
    path = GOLDEN_DIR / f"{name}.txt"
    expected = path.read_text() if path.exists() else ""
    if actual == expected:
        return []
    return list(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"tests/golden/{name}.txt",
            tofile=f"{name} (rendered)",
        )
    )


def write(name: str) -> Path:
    """Render ``name`` and (re)write its golden file."""
    path = GOLDEN_DIR / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render(name))
    return path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = [a for a in argv if not a.startswith("--")]
    from repro.experiments.runner import experiment_names

    if not names:
        names = experiment_names()
    if "--write" in argv:
        for name in names:
            print(f"golden: wrote {write(name)}")
        return 0
    failures = []
    for name in names:
        diff = check(name)
        if diff:
            failures.append(name)
            print(f"golden: DIVERGED: {name}")
            sys.stdout.writelines(diff)
        else:
            print(f"golden: identical: {name}")
    if failures:
        print(
            f"golden: FAIL: {len(failures)}/{len(names)} "
            f"experiments diverged: {', '.join(failures)}"
        )
        return 1
    print(f"golden: OK: {len(names)} experiments identical to tests/golden/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
