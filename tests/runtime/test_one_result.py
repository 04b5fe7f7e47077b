"""One result out of every substrate.

``ThreadedRuntime.run`` and ``ProcessRuntime.run`` return the
:class:`~repro.runtime.result.ExecutionResult` the DES returns, built once
by ``runtime.live.merge_reports``; ``StaticExecutor(runtime=...)`` hands it
on with the schedule's ``period`` added.  Checked on the tracker over four
live setups: threads, one process node, two process nodes (T1–T3 | T4–T5)
and a respawn-capable plan, which keeps every channel at the broker.  A
fault plan is the process runtime's own option, so the executor is
compared on the three setups without one.
"""

from __future__ import annotations

import pytest

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.runtime.process import ProcessFaultPlan, ProcessRuntime
from repro.runtime.result import ExecutionResult
from repro.runtime.static_exec import StaticExecutor
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.cluster import ClusterSpec
from repro.state import State

pytestmark = pytest.mark.slow

FRAMES = 6
TASKS = ("T1", "T2", "T3", "T4", "T5")
CLUSTER = ClusterSpec(nodes=2, procs_per_node=1)
#: setup -> (substrate, task -> node, process fault plan)
SETUPS = {
    "threaded": ("threaded", dict.fromkeys(TASKS, 0), None),
    "one-node": ("process", dict.fromkeys(TASKS, 0), None),
    "two-nodes": ("process", {"T1": 0, "T2": 0, "T3": 0, "T4": 1, "T5": 1}, None),
    "respawn": ("process", dict.fromkeys(TASKS, 0), ProcessFaultPlan()),
}


def tracker():
    video = VideoSource(n_targets=2, height=48, width=64, seed=11)
    graph, statics = attach_kernels(build_tracker_graph(frame_shape=(48, 64)),
                                    video)
    return graph, statics, State(n_models=2)


def schedule(nodes: dict[str, int]) -> PipelinedSchedule:
    """One task after the other, each on its node's one processor."""
    placements = [Placement(name, (nodes[name],), float(i), 1.0)
                  for i, name in enumerate(TASKS)]
    return PipelinedSchedule(IterationSchedule(placements), period=5.0,
                             shift=0, n_procs=CLUSTER.total_processors)


def run_direct(which: str) -> ExecutionResult:
    substrate, nodes, faults = SETUPS[which]
    graph, statics, state = tracker()
    if substrate == "threaded":
        return ThreadedRuntime(graph, state, static_inputs=statics,
                               op_timeout=30.0).run(FRAMES)
    return ProcessRuntime(graph, state, static_inputs=statics,
                          schedule=schedule(nodes), cluster=CLUSTER,
                          op_timeout=30.0, faults=faults).run(FRAMES)


def run_executor(which: str) -> ExecutionResult:
    substrate, nodes, _faults = SETUPS[which]
    graph, statics, state = tracker()
    return StaticExecutor(graph, state, CLUSTER, schedule(nodes),
                          runtime=substrate, static_inputs=statics).run(FRAMES)


@pytest.mark.parametrize("which", list(SETUPS))
def test_live_run_returns_the_execution_result(which):
    res = run_direct(which)
    assert isinstance(res, ExecutionResult)
    assert res.meta["substrate"] == SETUPS[which][0]
    assert res.horizon == res.meta["wall_time"]
    assert res.emitted == FRAMES
    assert res.completed == list(range(FRAMES))
    assert sorted(res.meta["outputs"]["model_locations"]) == list(range(FRAMES))
    assert res.gc_collected == sum(
        stats["collected"] for stats in res.meta["channel_stats"].values())
    assert "gc_collected" not in res.meta
    assert "live_item_high_water" not in res.meta


@pytest.mark.parametrize(
    "which", [which for which, setup in SETUPS.items() if setup[2] is None]
)
def test_static_executor_adds_only_the_period(which):
    direct, via = run_direct(which), run_executor(which)
    assert isinstance(via, ExecutionResult)
    assert via.meta["period"] == 5.0
    assert via.meta.keys() - {"period"} == direct.meta.keys()
