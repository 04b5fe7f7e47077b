"""The reports the dynamic executor draws, frozen as text.

``golden/<name>_quick.txt`` is the body ``python -m repro.experiments <name>
--quick`` prints between its ``=== name ===`` and ``--- done
in ---`` lines.  Figure 3 sweeps the digitizer period under the pthread
model, Figure 4 draws its Gantt chart, and the ablations run the quantum
sweep (478 685 preemptions at a 1 ms quantum), the scheduler-knowledge,
flow-control and space-footprint tables on it — every number is a whole
DES run, so the text pins the dynamic executor end to end.
"""

from __future__ import annotations

from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize("name", ["figure3", "figure4", "ablations"])
def test_quick_report_text_is_unchanged(name):
    from repro.experiments import __main__ as cli

    text = getattr(cli, f"_{name}")(True)
    assert text == (GOLDEN / f"{name}_quick.txt").read_text(encoding="utf-8")
