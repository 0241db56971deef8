"""The characterization timeline stays byte-identical to its golden.

``tests/golden/timeline/characterization.json`` is the document that
``python -m repro timeline characterization --interval 64 --out FILE``
writes: one :class:`~repro.monitor.timeline.MetricTimeline` per machine,
every series sampled at 64-cycle intervals.  Everything in it is
simulated (engine events, queue gauges, busy and word deltas), so a
change to when or what the probes sample shows up here.

The comparison is on the text the CLI writes, so series order is pinned
as well as the values.

``python tests/test_timeline_golden.py --write`` (re)creates the file.
A golden change is a behaviour change: rewrite it only when the timeline
is meant to record something different.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "timeline" / "characterization.json"


def render(out: Path) -> str:
    """The CLI's timeline document for characterization, as text."""
    from repro.__main__ import main

    assert main(["timeline", "characterization", "--interval", "64",
                 "--out", str(out)]) == 0
    return out.read_text()


def test_timeline_matches_golden(tmp_path, capsys):
    expected = GOLDEN.read_text()
    actual = render(tmp_path / "timeline.json")
    capsys.readouterr()  # the sparkline report the CLI prints
    if actual != expected:
        import difflib

        diff = difflib.unified_diff(
            json.dumps(json.loads(expected), indent=1).splitlines(keepends=True),
            json.dumps(json.loads(actual), indent=1).splitlines(keepends=True),
            fromfile=str(GOLDEN.relative_to(GOLDEN.parents[2])),
            tofile="characterization (rendered)",
        )
        pytest.fail("".join(list(diff)[:200]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_timeline_golden.py --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    render(GOLDEN)
    print(f"wrote {GOLDEN}")
