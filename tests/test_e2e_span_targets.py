"""The end-to-end benchmark's name contract with ``src/``.

``benchmarks/e2e`` records its per-layer spans by replacing functions *by
name* in the namespace their caller resolves them through
(``owner.__dict__[attr]``, see ``benchmarks/e2e/spans.py::Recorder.wrap``).
A refactor that moves a method into a base class, or turns a call-time
module look-up into a ``from x import f`` binding, keeps every test green
and kills ``run.py --trace 1`` with a ``KeyError`` in a child.  This drives
the two installers with a recorder that only checks the names — no timing,
no children.
"""

from __future__ import annotations

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:  # workloads imports its siblings by bare name
    sys.path.insert(0, str(E2E_DIR))

import workloads  # noqa: E402


class NameCheckingRecorder:
    """Stands in for ``spans.Recorder``: resolves targets, wraps nothing."""

    enabled = True
    segment = None

    def __init__(self) -> None:
        self.targets: list[tuple[str, str]] = []

    def _resolve(self, owner, attr):
        where = getattr(owner, "__qualname__", None) or owner.__name__
        assert attr in owner.__dict__, (
            f"benchmarks/e2e wraps {where}.{attr}, which is no longer defined "
            f"in {where}'s own namespace"
        )
        self.targets.append((where, attr))
        return owner.__dict__[attr]

    def wrap(self, owner, attr, name, trace_of=None, on_result=None) -> None:
        self._resolve(owner, attr)

    def replace(self, owner, attr, new):
        return self._resolve(owner, attr)


def test_offline_span_targets_resolve():
    rec = NameCheckingRecorder()
    workloads.install_offline_spans(rec)
    assert ("repro.core.parallel", "solve_many") in rec.targets
    assert {("ScheduleCache", "fetch"), ("ScheduleCache", "store")} <= set(rec.targets)
    assert len(rec.targets) >= 13


def test_sim_span_targets_resolve():
    rec = NameCheckingRecorder()
    workloads.install_sim_spans(rec)
    assert {
        ("ScheduleTable", "lookup"),
        ("RegimeDetector", "observe"),
        ("DrainTransition", "effect"),
    } <= set(rec.targets)
    assert len(rec.targets) >= 18


def test_builders_resolve_wrapped_layers_at_call_time(monkeypatch, tmp_path):
    """``ScheduleTable.build(verify=True)`` must reach ``solve_many`` and the
    analysis passes through their modules when called, or a wrap installed
    after import is never seen — and reach ``solve_many`` once, not again
    from inside its own cached path (its span would nest inside itself)."""
    import repro.analysis as analysis
    import repro.core.parallel as parallel_mod
    from repro.core.cache import ScheduleCache
    from repro.core.optimal import OptimalScheduler
    from repro.core.table import ScheduleTable
    from repro.graph.builders import chain_graph
    from repro.sim.cluster import SINGLE_NODE_SMP
    from repro.state import StateSpace

    seen: list[str] = []

    def spy(owner, attr):
        fn = owner.__dict__[attr]

        def traced(*args, **kwargs):
            seen.append(attr)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, traced)

    for attr in ("lint_graph", "verify_schedule_table", "check_stm", "check_model"):
        spy(analysis, attr)
    spy(parallel_mod, "solve_many")
    ScheduleTable.build(
        chain_graph([1.0, 1.0]),
        StateSpace.range("n_models", 1, 2),
        OptimalScheduler(SINGLE_NODE_SMP(2)),
        parallel=1,
        cache=ScheduleCache(tmp_path / "cache"),
        verify=True,
    )
    assert seen == [
        "solve_many", "lint_graph", "verify_schedule_table",
        "check_stm", "check_model",
    ]
