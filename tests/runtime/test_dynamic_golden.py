"""The dynamic executor, frozen bit for bit.

``golden_dynamic.json`` holds one run of :class:`DynamicExecutor` per case
of a grid over what steers its heap: the graph, the input policy (``latest`` /
``inorder``), the on-line scheduler (FIFO pthread, pthread with seeded
jitter, timestamp priority), capacity-1 streaming channels, and a fault
plan (none; a node crash mid-slice and its recovery; a processor loss; a
slowdown).  A case pins every execution span in order and every STM item
event in order (as SHA-256 digests of their ``float.hex()`` rows), the
digitize and completion times, the scheduler's grants and preemptions, the
death-preempted slices and the GC totals.  Any change to the order in which
same-instant heap entries fire moves one of them.

Re-record (only for an intended change of behaviour) with
``PYTHONPATH=src python -m tests.runtime.test_dynamic_golden``.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.faults import FaultPlan, NodeSlowdown, ProcessorLoss
from repro.graph.builders import fork_join_graph
from repro.runtime.dynamic import DynamicExecutor
from repro.sched.online import PthreadScheduler
from repro.sched.priority import TimestampPriorityScheduler
from repro.sim.cluster import ClusterSpec
from repro.state import State

from .. import golden

PATH = Path(__file__).with_name("golden_dynamic.json")
HORIZON = 4.0
STATE = State(n_models=1)

#: Two loads that keep more threads ready than there are processors, so the
#: scheduler's choice of who runs next matters: five 20-60 ms branches at
#: 20 frames/s on 2 x 2 processors, and the tracker (three streaming inputs
#: and a static one into T4) at 10 frames/s on two.
GRAPHS = {
    "forkjoin": (
        lambda: fork_join_graph(0.01, [0.05, 0.04, 0.03, 0.06, 0.02], 0.01, period=0.05),
        ClusterSpec(2, 2),
    ),
    "tracker": (lambda: build_tracker_graph(digitizer_period=0.1), ClusterSpec(2, 1)),
}
SCHEDULERS = {
    "pthread": lambda: PthreadScheduler(quantum=0.01),
    "jitter": lambda: PthreadScheduler(quantum=0.01, jitter_seed=7),
    "priority": lambda: TimestampPriorityScheduler(quantum=0.01),
}
CAPACITIES = ("unbounded", "capacity1")
PLANS = {
    "none": lambda cluster: None,
    "crash+recover": lambda cluster: FaultPlan.crash_at(1.503, node=1, recover_at=2.757),
    "procloss": lambda cluster: FaultPlan(
        [ProcessorLoss(time=1.207, proc=cluster.total_processors - 1)]
    ),
    "slowdown": lambda cluster: FaultPlan([NodeSlowdown(time=0.803, node=0, factor=0.5)]),
}
GRID = [
    (graph, policy, sched, cap, plan)
    for graph in GRAPHS
    for policy in ("latest", "inorder")
    for sched in SCHEDULERS
    for cap in CAPACITIES
    for plan in PLANS
]


def run(graph_name, policy, sched, cap, plan):
    """One case: its result and its scheduler."""
    make_graph, cluster = GRAPHS[graph_name]
    graph = make_graph()
    override = None
    if cap == "capacity1":
        override = {c.name: 1 for c in graph.channels if not c.static}
    scheduler = SCHEDULERS[sched]()
    result = DynamicExecutor(
        graph, STATE, cluster, scheduler, input_policy=policy,
        capacity_override=override, faults=PLANS[plan](cluster),
    ).run(HORIZON)
    return result, scheduler


def summary(result, scheduler) -> dict:
    spans = [
        (s.proc, s.task, s.timestamp, s.start, s.end, s.preempted)
        for s in result.trace.spans
    ]
    items = [(e.time, e.channel, e.kind, e.timestamp, e.task) for e in result.trace.items]
    return golden.encode({
        "spans": golden.digest(spans),
        "n_spans": len(spans),
        "items": golden.digest(items),
        "digitize_times": result.digitize_times,
        "completion_times": result.completion_times,
        "emitted": result.emitted,
        "grants": scheduler.grants,
        "preemptions": scheduler.preemptions,
        "fault_preemptions": result.meta["fault_preemptions"],
        "faults_applied": result.meta["faults_applied"],
        "dead_procs": result.meta["dead_procs"],
        "gc_collected": result.gc_collected,
        "live_item_high_water": result.live_item_high_water,
    })


@lru_cache(maxsize=None)
def frozen_cases() -> dict:
    return golden.load(PATH)


def test_the_fixture_has_one_entry_per_grid_case():
    assert len(GRID) == 96
    assert sorted(frozen_cases()) == sorted("/".join(case) for case in GRID)


@pytest.mark.parametrize("case", GRID, ids="/".join)
def test_same_run_bit_for_bit(case):
    assert summary(*run(*case)) == frozen_cases()["/".join(case)]


def test_the_grid_exercises_every_branch():
    """Slices cut short by a processor's death, quantum preemption and
    frame skipping all happen somewhere in the grid, and on the fork-join
    the three schedulers give three different runs of every case."""
    frozen = frozen_cases()
    assert any(c["fault_preemptions"] > 0 for c in frozen.values())
    assert all(c["preemptions"] > 0 for c in frozen.values())
    latest = frozen["forkjoin/latest/pthread/unbounded/none"]
    assert len(latest["completion_times"]) < latest["emitted"]
    for _graph, policy, _sched, cap, plan in GRID:
        runs = {frozen[f"forkjoin/{policy}/{s}/{cap}/{plan}"]["spans"] for s in SCHEDULERS}
        assert len(runs) == 3


if __name__ == "__main__":
    golden.dump(PATH, {"/".join(case): summary(*run(*case)) for case in GRID})
