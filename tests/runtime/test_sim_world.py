"""One simulated world under the three DES executors.

``StaticExecutor``, ``DynamicExecutor`` and ``FaultTolerantExecutor`` run
in one :class:`~repro.runtime.hub.SimWorld`: one STM wiring, one frame
ledger, one result builder.  The differential half pins what that buys —
with an empty fault plan the fault-tolerant executor *is* the static one —
and the unit half pins each rule the world owns.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.faults import FaultPlan, FaultRuntime, FaultTolerantExecutor
from repro.graph.builders import chain_graph, fork_join_graph, tracker_shape_graph
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.dynamic import DynamicExecutor
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.static_exec import StaticExecutor
from repro.sched.online import PthreadScheduler
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.state import State

STATE = State(n_models=1)
SMP2 = ClusterSpec(nodes=2, procs_per_node=1)
SMP4 = SINGLE_NODE_SMP(4)
TRACKER_COSTS = {"T1": 0.1, "T2": 0.3, "T3": 0.2, "T4": 0.6, "T5": 0.1}


def two_source_graph() -> TaskGraph:
    """``s1`` (1.0 s) and ``s2`` (2.5 s) both feed ``j``."""
    g = TaskGraph("two-source")
    g.add_channel(ChannelSpec("a"))
    g.add_channel(ChannelSpec("b"))
    g.add_task(Task("s1", cost=1.0, outputs=["a"]))
    g.add_task(Task("s2", cost=2.5, outputs=["b"]))
    g.add_task(Task("j", cost=0.5, inputs=["a", "b"]))
    g.validate()
    return g


def terminal_graph(capacity=None) -> TaskGraph:
    """Tracker shape: a static ``color_model`` and a terminal
    ``model_locations`` (bounded when ``capacity`` is given)."""
    g = tracker_shape_graph(TRACKER_COSTS, sizes={"color_model": 64, "frame": 8})
    if capacity is not None:
        g.channel("model_locations").capacity = capacity
    return g


def make_world(graph, state=STATE, cluster=SMP4):
    sim = Simulator()
    trace = TraceRecorder()
    world = SimWorld(
        graph, state, cluster, sim, trace,
        build_hubs(sim, graph, trace), build_task_plans(graph),
    )
    return sim, world


CASES = [
    ("chain", lambda: chain_graph([1.0, 1.0]), STATE, SMP2),
    ("chain3", lambda: chain_graph([0.5, 1.0, 0.25]), STATE, SMP4),
    ("fork_join", lambda: fork_join_graph(0.2, [0.5, 0.7, 0.3], 0.2), STATE, SMP4),
    ("tracker_shape", terminal_graph, STATE, SMP4),
    ("two_source", two_source_graph, STATE, SMP2),
] + [
    (f"tracker{n}", build_tracker_graph, State(n_models=n), SMP4)
    for n in range(1, 6)
]


class TestStaticEqualsFaultTolerantOnEmptyPlan:
    """Only the scheduling policy may differ between the executors; with
    no faults there is no policy difference left."""

    @pytest.mark.parametrize(
        "make_graph,state,cluster",
        [c[1:] for c in CASES],
        ids=[c[0] for c in CASES],
    )
    def test_same_frames_times_and_spans(self, make_graph, state, cluster):
        graph = make_graph()
        faulty = FaultTolerantExecutor(
            graph, state, cluster, FaultRuntime(plan=FaultPlan([]))
        )
        static = StaticExecutor(graph, state, cluster, faulty.table.lookup(cluster))
        a, b = static.run(8), faulty.run(8)

        assert a.meta["slips"] == 0
        assert a.completed == b.completed == list(range(8))
        for ts in a.completed:
            assert b.completion_times[ts] == pytest.approx(
                a.completion_times[ts], abs=1e-9
            )
            assert b.digitize_times[ts] == pytest.approx(
                a.digitize_times[ts], abs=1e-9
            )
        assert b.latencies() == pytest.approx(a.latencies(), abs=1e-9)
        spans = lambda res: Counter(
            (s.proc, s.task, s.timestamp) for s in res.trace.spans
        )
        assert spans(a) == spans(b)
        assert (a.gc_collected, a.live_item_high_water) == (
            b.gc_collected, b.live_item_high_water
        )

    def test_two_source_latency_counts_from_the_last_source(self):
        """The drift this world removed: the fault runner used to stamp a
        frame's digitize time at its *first* source's put (latency 2.5 s
        against the static executor's 1.0 s on this graph)."""
        graph = two_source_graph()
        faulty = FaultTolerantExecutor(
            graph, STATE, SMP2, FaultRuntime(plan=FaultPlan([]))
        )
        solution = faulty.table.lookup(SMP2)
        static = StaticExecutor(graph, STATE, SMP2, solution)
        a, b = static.run(4), faulty.run(4)
        assert a.latencies() == pytest.approx(b.latencies(), abs=1e-9)
        ends = {p.task: p.end for p in solution.pipelined.iteration.placements}
        assert a.latencies()[0] == pytest.approx(
            ends["j"] - max(ends["s1"], ends["s2"])
        )


class TestStaticFill:
    def test_statics_filled_exactly_once_and_sized(self):
        graph = terminal_graph()
        _sim, world = make_world(graph)
        stm = world.hubs["color_model"].stm
        assert stm.timestamps() == [0]
        assert stm.live_bytes() == 64
        for name, hub in world.hubs.items():
            if name != "color_model":
                assert len(hub.stm) == 0


class TestTerminalCollector:
    def test_capacity_one_terminal_channel_never_blocks_its_producer(self):
        graph = terminal_graph(capacity=1)
        sim, world = make_world(graph)
        # every put lands at once: the collector drains behind it
        assert [world.try_emit("T5", ts) for ts in range(5)] == [None] * 5
        assert len(world.hubs["model_locations"].stm) == 0
        assert sim.peek() is None

    def test_static_executor_runs_on_a_capacity_one_terminal_channel(self):
        graph = terminal_graph(capacity=1)
        solution = OptimalScheduler(SMP4).solve(graph, STATE)
        res = StaticExecutor(graph, STATE, SMP4, solution).run(6)
        assert res.completed == list(range(6))
        assert res.meta["slips"] == 0


class TestLedger:
    def test_complete_only_when_every_sink_has_the_frame(self):
        g = TaskGraph("two-sink")
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("src", cost=0.1, outputs=["c"]))
        g.add_task(Task("k1", cost=0.1, inputs=["c"]))
        g.add_task(Task("k2", cost=0.1, inputs=["c"]))
        g.validate()
        sim, world = make_world(g)
        for ts in (0, 1):
            assert world.try_emit("src", ts) is None
            world.retire("src", ts, sim.now)
        world.retire("k1", 0, 1.0)
        world.retire("k2", 0, 2.0)
        world.retire("k1", 1, 3.0)
        res = world.result(3.0, 2, {})
        assert res.completion_times == {0: 2.0}
        assert res.emitted == 2 and res.horizon == 3.0

    def test_digitize_is_the_last_source_and_a_replay_keeps_the_first_stamp(self):
        sim, world = make_world(two_source_graph(), cluster=SMP2)
        seen = []

        def retire(*tasks):
            for task in tasks:
                world.retire(task, 0, sim.now)
            seen.append(dict(world.digitize_times))

        sim.call_at(1.0, retire, "s1")
        sim.call_at(2.5, retire, "s2")
        sim.call_at(6.5, retire, "s1", "s2")  # checkpoint replay of frame 0
        sim.run()
        assert seen == [{0: 1.0}, {0: 2.5}, {0: 2.5}]

    def test_result_sums_gc_accounting_over_the_hubs(self):
        graph = terminal_graph()
        solution = OptimalScheduler(SMP4).solve(graph, STATE)
        sim = Simulator()
        trace = TraceRecorder()
        hubs = build_hubs(sim, graph, trace)
        world = SimWorld(
            graph, STATE, SMP4, sim, trace, hubs, build_task_plans(graph)
        )
        for ts in range(4):
            for pl in solution.pipelined.iteration.placements:
                assert world.try_emit(pl.task, ts) is None
                world.retire(pl.task, ts, sim.now)
        res = world.result(0.0, 4, {"k": 1})
        assert res.meta == {"k": 1}
        assert res.gc_collected == sum(h.gc_stats.collected for h in hubs.values())
        assert res.gc_collected > 0
        assert res.live_item_high_water == sum(
            h.gc_stats.high_water_items for h in hubs.values()
        )


class TestDynamicExecutorKeepsNoRunState:
    def test_one_instance_run_twice_returns_equal_results(self):
        graph = terminal_graph()
        ex = DynamicExecutor(
            graph, STATE, ClusterSpec(nodes=2, procs_per_node=2),
            PthreadScheduler(quantum=0.01),
        )
        a, b = ex.run(6.0), ex.run(6.0)
        # the scheduler's repr carries its own lifetime grant counter
        a.meta.pop("scheduler"), b.meta.pop("scheduler")
        assert a.meta == b.meta
        assert any(s.preempted for s in a.trace.spans)
        assert a.emitted == b.emitted
        assert a.digitize_times == b.digitize_times
        assert a.completion_times == b.completion_times
        assert a.trace.spans == b.trace.spans
        assert not hasattr(ex, "_collector_conns")
