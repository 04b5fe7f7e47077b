"""The dynamic executor, frozen bit for bit.

``golden_dynamic.json`` holds one run of :class:`DynamicExecutor` per case
of a grid over what steers its heap: the graph, the input policy (``latest`` /
``inorder``), the on-line scheduler (FIFO pthread, pthread with seeded
jitter, timestamp priority), capacity-1 streaming channels and the
cluster's shape (as built; its first node only; its first node at half
speed; its second node at double speed).  A case pins every
execution span in order and every STM item event in order (as SHA-256
digests of their ``float.hex()`` rows), the digitize and completion times,
the scheduler's grants and preemptions and the GC totals.  Any change to
the order in which same-instant heap entries fire moves one of them.  Every
case is also checked for what a golden recorded from a faulty run would not
catch: no processor runs two slices at once, and every slice runs on a
processor of the case's cluster.

Re-record (only for an intended change of behaviour) with
``PYTHONPATH=src python -m tests.runtime.test_dynamic_golden``.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest

from repro.apps.tracker.graph import build_tracker_graph
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
#: The graph's cluster, what a crash of its second node leaves of it, and
#: two speeds other than one: a slowed first node, a faster second one.
SHAPES = {
    "as-built": lambda c: c,
    "node0-only": lambda c: ClusterSpec(procs_by_node=c.procs_by_node[:1]),
    "node0-half-speed": lambda c: ClusterSpec(
        procs_by_node=c.procs_by_node, node_speeds=[0.5] + [1.0] * (c.nodes - 1)
    ),
    "node1-double-speed": lambda c: ClusterSpec(
        procs_by_node=c.procs_by_node, node_speeds=[1.0, 2.0] + [1.0] * (c.nodes - 2)
    ),
}
GRID = [
    (graph, policy, sched, cap, shape)
    for graph in GRAPHS
    for policy in ("latest", "inorder")
    for sched in SCHEDULERS
    for cap in CAPACITIES
    for shape in SHAPES
]


def cluster_of(graph_name, shape):
    return SHAPES[shape](GRAPHS[graph_name][1])


def run(graph_name, policy, sched, cap, shape):
    """One case: its result and its scheduler."""
    make_graph, _cluster = GRAPHS[graph_name]
    cluster = cluster_of(graph_name, shape)
    graph = make_graph()
    override = None
    if cap == "capacity1":
        override = {c.name: 1 for c in graph.channels if not c.static}
    scheduler = SCHEDULERS[sched]()
    result = DynamicExecutor(
        graph, STATE, cluster, scheduler, input_policy=policy,
        capacity_override=override,
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
        "gc_collected": result.gc_collected,
        "live_item_high_water": result.live_item_high_water,
    })


@lru_cache(maxsize=None)
def frozen_cases() -> dict:
    return golden.load(PATH)


@lru_cache(maxsize=None)
def outcome(case) -> tuple[dict, tuple]:
    """A case's summary and its spans as ``(proc, start, end)``, run once
    for both tests of the case."""
    result, scheduler = run(*case)
    slices = tuple((s.proc, s.start, s.end) for s in result.trace.spans)
    return summary(result, scheduler), slices


def test_the_fixture_has_one_entry_per_grid_case():
    assert len(GRID) == 96
    assert sorted(frozen_cases()) == sorted("/".join(case) for case in GRID)


@pytest.mark.parametrize("case", GRID, ids="/".join)
def test_same_run_bit_for_bit(case):
    assert outcome(case)[0] == frozen_cases()["/".join(case)]


@pytest.mark.parametrize("case", GRID, ids="/".join)
def test_one_slice_at_a_time_on_the_cluster_processors(case):
    slices = outcome(case)[1]
    procs = {p.index for p in cluster_of(case[0], case[4]).processors}
    by_proc: dict[int, list[tuple[float, float]]] = {}
    for proc, start, end in slices:
        assert proc in procs
        assert 0.0 <= start <= end
        by_proc.setdefault(proc, []).append((start, end))
    for rows in by_proc.values():
        rows.sort()
        assert all(later[0] >= earlier[1] for earlier, later in zip(rows, rows[1:]))


def test_the_grid_exercises_every_branch():
    """Quantum preemption and frame skipping both happen in the grid, on
    the fork-join the three schedulers give three different runs of every
    case, and each shape gives every case a run of its own."""
    frozen = frozen_cases()
    assert all(c["preemptions"] > 0 for c in frozen.values())
    latest = frozen["forkjoin/latest/pthread/unbounded/as-built"]
    assert len(latest["completion_times"]) < latest["emitted"]
    for _graph, policy, _sched, cap, shape in GRID:
        runs = {frozen[f"forkjoin/{policy}/{s}/{cap}/{shape}"]["spans"] for s in SCHEDULERS}
        assert len(runs) == 3
    for graph, policy, sched, cap, _shape in GRID:
        runs = {frozen[f"{graph}/{policy}/{sched}/{cap}/{s}"]["spans"] for s in SHAPES}
        assert len(runs) == len(SHAPES)


if __name__ == "__main__":
    golden.dump(PATH, {"/".join(case): summary(*run(*case)) for case in GRID})
