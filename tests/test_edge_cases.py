"""Edge-case tests across modules (failure paths and odd corners)."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.state import State


class TestEngineFailurePaths:
    def test_unhandled_process_exception_propagates_from_run(self):
        """A call on the heap that raises stops the run with its error, at
        its instant."""
        sim = Simulator()

        def boom(_fired):
            raise RuntimeError("task crashed")

        sim.timeout(1.0).add_callback(boom)
        with pytest.raises(RuntimeError, match="task crashed"):
            sim.run()
        assert sim.now == 1.0


class TestHeterogeneousDynamicExecution:
    def test_fast_node_finishes_work_sooner(self):
        """A 2x-speed processor halves execution spans in the dynamic
        executor (work is tracked in nominal seconds)."""
        from repro.graph.builders import chain_graph
        from repro.runtime.dynamic import DynamicExecutor
        from repro.sched.online import PthreadScheduler
        from repro.sim.cluster import ClusterSpec

        g = chain_graph([0.001, 1.0], period=5.0)
        cluster = ClusterSpec(nodes=1, procs_per_node=1, node_speeds=[2.0])
        result = DynamicExecutor(
            g, State(n_models=1), cluster, PthreadScheduler(quantum=10.0)
        ).run(horizon=20.0, max_timestamps=2)
        t1_spans = result.trace.spans_of("t1")
        total = sum(s.duration for s in t1_spans if s.timestamp == 0)
        assert total == pytest.approx(0.5)  # 1.0 nominal / speed 2.0


class TestGanttWindows:
    def test_window_clips_spans(self):
        from repro.metrics.gantt import render_gantt
        from repro.sim.trace import ExecSpan, TraceRecorder

        t = TraceRecorder()
        t.record_span(ExecSpan(0, "early", 0, 0.0, 1.0))
        t.record_span(ExecSpan(0, "late", 1, 100.0, 101.0))
        text = render_gantt(t, t0=0.0, t1=2.0)
        assert "early" in text and "late" not in text

    def test_explicit_processor_subset(self):
        from repro.metrics.gantt import render_gantt
        from repro.sim.trace import ExecSpan, TraceRecorder

        t = TraceRecorder()
        t.record_span(ExecSpan(0, "a", 0, 0.0, 1.0))
        t.record_span(ExecSpan(5, "b", 0, 0.0, 1.0))
        text = render_gantt(t, procs=[5])
        assert "b#0" in text and "a#0" not in text


class TestFigure3Helpers:
    def test_expanded_tracker_structure(self):
        from repro.experiments.figure3 import expanded_tracker_for_tuning

        g = expanded_tracker_for_tuning(8, 4)
        names = set(g.task_names)
        assert "T4" not in names
        assert {"T4.split", "T4.join", "T4.w0", "T4.w3"} <= names
        # The expansion uses the planner's choice for 8 models (4 chunks).
        m8 = State(n_models=8)
        worker_costs = [g.task(f"T4.w{i}").cost(m8) for i in range(4)]
        assert all(c > 0 for c in worker_costs)


class TestTransitionValidation:
    def test_negative_setup_rejected(self):
        from repro.core.transition import DrainTransition, ImmediateTransition

        with pytest.raises(ValueError):
            DrainTransition(setup=-1.0)
        with pytest.raises(ValueError):
            ImmediateTransition(setup=-0.5)

    def test_in_flight_count(self):
        from repro.core.optimal import OptimalScheduler
        from repro.core.transition import TransitionPolicy
        from repro.graph.builders import chain_graph
        from repro.sim.cluster import SINGLE_NODE_SMP

        sol = OptimalScheduler(SINGLE_NODE_SMP(2)).solve(
            chain_graph([1.0, 1.0]), State(n_models=1)
        )
        # L=2, II=1 -> two iterations in flight.
        assert TransitionPolicy.in_flight(sol) == 2


class TestCurveRenderCorners:
    def test_highlight_only(self):
        from repro.metrics.curves import CurvePoint, render_curve

        text = render_curve([], highlight=CurvePoint(0.5, 2.0))
        assert "*" in text

    def test_identical_points_no_crash(self):
        from repro.metrics.curves import CurvePoint, render_curve

        pts = [CurvePoint(0.5, 2.0)] * 3
        assert "o" in render_curve(pts)


class TestStateSpaceProduct:
    def test_two_variable_state_costs(self):
        """Cost models key off any variable; multi-variable states work
        end to end through the scheduler."""
        from repro.core.optimal import OptimalScheduler
        from repro.graph.builders import chain_graph
        from repro.graph.cost import CallableCost
        from repro.graph.channel import ChannelSpec
        from repro.graph.task import Task
        from repro.graph.taskgraph import TaskGraph
        from repro.sim.cluster import SINGLE_NODE_SMP

        g = TaskGraph("multi")
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("src", cost=0.01, outputs=["c"]))
        g.add_task(
            Task(
                "mix",
                cost=CallableCost(
                    lambda s: 0.1 * s["n_models"] + 0.2 * s["n_cameras"]
                ),
                inputs=["c"],
            )
        )
        g.validate()
        sol = OptimalScheduler(SINGLE_NODE_SMP(2)).solve(
            g, State(n_models=2, n_cameras=3)
        )
        assert sol.latency == pytest.approx(0.01 + 0.8)
