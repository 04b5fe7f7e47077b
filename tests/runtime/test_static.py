"""Unit tests for the static executor (schedule replay + verification)."""

from __future__ import annotations

import inspect

import pytest

from repro.errors import ReproError
from repro.core.optimal import OptimalScheduler
from repro.core.pipeline import naive_pipeline
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.builders import chain_graph
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommCost, CommModel
from repro.state import State


class TestOptimalScheduleExecution:
    @pytest.fixture(scope="class")
    def executed(self):
        from repro.apps.tracker.graph import build_tracker_graph

        g = build_tracker_graph()
        m8 = State(n_models=8)
        cluster = SINGLE_NODE_SMP(4)
        sol = OptimalScheduler(cluster).solve(g, m8)
        result = StaticExecutor(g, m8, cluster, sol).run(12)
        return sol, result

    def test_zero_slips(self, executed):
        """A correct schedule executes exactly as planned."""
        sol, result = executed
        assert result.meta["slips"] == 0

    def test_every_iteration_completes(self, executed):
        sol, result = executed
        assert result.completed_count == 12

    def test_latency_matches_schedule(self, executed):
        """Measured latency == scheduled latency minus the digitizer span
        (latency is measured from the frame put, i.e. after T1 runs)."""
        sol, result = executed
        t1_end = sol.iteration.placement("T1").end
        expected = sol.latency - t1_end
        for ts in result.completed:
            assert result.latency(ts) == pytest.approx(expected)

    def test_completions_periodic_at_ii(self, executed):
        sol, result = executed
        seq = result.completion_sequence()
        gaps = [b - a for a, b in zip(seq, seq[1:])]
        for g in gaps:
            assert g == pytest.approx(sol.period)

    def test_gc_reclaims_everything(self, executed):
        """After a full drain every streaming item must be collected."""
        sol, result = executed
        # 5 streaming channels x 12 iterations.
        assert result.gc_collected == 5 * 12


class TestPipelineExecution:
    def test_naive_pipeline_executes_cleanly(self, tracker_graph, m8, smp4):
        p = naive_pipeline(tracker_graph, m8, smp4)
        result = StaticExecutor(tracker_graph, m8, smp4, p).run(8)
        assert result.meta["slips"] == 0
        assert result.completed_count == 8

    def test_utilization_of_naive_pipeline_is_full(self, tracker_graph, m8, smp4):
        """Figure 4(b): 'this schedule has no idle time' (steady state)."""
        p = naive_pipeline(tracker_graph, m8, smp4)
        result = StaticExecutor(tracker_graph, m8, smp4, p).run(16)
        # Window well inside the steady state: all processors busy.
        t0 = 2 * p.latency
        t1 = result.trace.makespan - 2 * p.latency
        busy = sum(
            min(s.end, t1) - max(s.start, t0)
            for s in result.trace.spans
            if s.end > t0 and s.start < t1
        )
        assert busy / ((t1 - t0) * 4) > 0.98


class TestCommDelays:
    def test_executor_charges_comm(self, m1):
        g = chain_graph([1.0, 1.0], item_bytes=1000)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster, inter_node=CommCost(latency=0.5, bandwidth=float("inf"))
        )
        # Schedule t1 on the other node with slack for the transfer.
        it = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.5, 1.0)]
        )
        sched = PipelinedSchedule(it, period=2.5, shift=0, n_procs=2)
        result = StaticExecutor(g, m1, cluster, sched, comm=comm).run(3)
        assert result.meta["slips"] == 0

    def test_tight_schedule_slips_under_comm(self, m1):
        g = chain_graph([1.0, 1.0], item_bytes=1000)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster, inter_node=CommCost(latency=0.5, bandwidth=float("inf"))
        )
        it = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.0, 1.0)]
        )
        sched = PipelinedSchedule(it, period=2.5, shift=0, n_procs=2)
        result = StaticExecutor(g, m1, cluster, sched, comm=comm).run(2)
        assert result.meta["slips"] == 2
        assert result.meta["max_slip"] == pytest.approx(0.5)


class TestGuards:
    def test_zero_iterations_rejected(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        ex = StaticExecutor(tracker_graph, m8, smp4, sol)
        with pytest.raises(ReproError):
            ex.run(0)

    def test_schedule_wider_than_cluster_rejected(self, m1):
        g = chain_graph([1.0])
        it = IterationSchedule([Placement("t0", (0,), 0.0, 1.0)])
        sched = PipelinedSchedule(it, period=1.0, shift=0, n_procs=4)
        with pytest.raises(ReproError):
            StaticExecutor(g, m1, SINGLE_NODE_SMP(2), sched)


def test_executor_takes_the_nine_replay_parameters():
    # The analyzer gate, the race checker and the fault plan are options of
    # the analyzer and the runtimes, not of the executor.
    params = list(inspect.signature(StaticExecutor.__init__).parameters)[1:]
    assert params == [
        "graph", "state", "cluster", "schedule", "comm", "contended", "obs",
        "runtime", "static_inputs",
    ]
