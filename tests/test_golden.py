"""The cheap experiments render byte-identically to their goldens.

``benchmarks/golden.py`` diffs every registered experiment against
``tests/golden/<name>.txt``; CI's ``golden`` job runs all of them.  The
tier-1 suite checks every experiment except table1 and table2 (together
about 30 s of the roughly 35 s full pass), so a refactor that changes
what the simulator computes fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.runner import experiment_names

_GOLDEN_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _GOLDEN_PY)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: the two long renders, left to the CI ``golden`` job.
_SLOW = {"table1", "table2"}


def test_every_experiment_has_a_golden():
    assert sorted(p.stem for p in golden.GOLDEN_DIR.glob("*.txt")) == sorted(
        experiment_names()
    )


@pytest.mark.parametrize(
    "name", [n for n in experiment_names() if n not in _SLOW]
)
def test_experiment_matches_golden(name):
    diff = golden.check(name)
    assert not diff, "".join(diff)
