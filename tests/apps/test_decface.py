"""Unit tests for the DECface gaze behaviour and the full kiosk graph."""

from __future__ import annotations

import pytest

from repro.apps.decface import GazeState, build_kiosk_graph, gaze_controller
from repro.core.optimal import OptimalScheduler
from repro.errors import ReproError
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


def loc(r, c, score=1.0):
    return (r, c, score)


class TestGazeState:
    def test_idle_when_nobody_present(self):
        gaze = GazeState()
        assert gaze.update([loc(-1, -1, 0.0)]) == -1

    def test_single_customer_held(self):
        gaze = GazeState(glance_period=2)
        for _ in range(5):
            assert gaze.update([loc(10, 10)]) == 0

    def test_round_robin_among_customers(self):
        gaze = GazeState(glance_period=2, motion_priority=1e9)
        targets = [
            gaze.update([loc(10, 10), loc(20, 20), loc(30, 30)]) for _ in range(12)
        ]
        # Every customer gets glanced at...
        assert set(targets) == {0, 1, 2}
        # ...for at most glance_period consecutive frames.
        run = 1
        for a, b in zip(targets, targets[1:]):
            run = run + 1 if a == b else 1
            assert run <= 2

    def test_motion_interrupt_grabs_gaze(self):
        gaze = GazeState(glance_period=100, motion_priority=10.0)
        gaze.update([loc(10, 10), loc(50, 50)])
        gaze.update([loc(10, 10), loc(50, 50)])
        # Customer 1 jumps 30 pixels: gaze must snap to them.
        assert gaze.update([loc(10, 10), loc(80, 50)]) == 1

    def test_departed_customer_released(self):
        gaze = GazeState(glance_period=100, motion_priority=1e9)
        assert gaze.update([loc(10, 10), loc(20, 20)]) == 0
        assert gaze.update([loc(-1, -1, 0.0), loc(20, 20)]) == 1

    def test_invalid_period(self):
        with pytest.raises(ReproError):
            GazeState(glance_period=0)

    def test_kernel_adapter(self):
        kernel = gaze_controller()
        out = kernel(State(n_models=1), {"model_locations": [loc(5, 5)]})
        assert out == {"gaze": {"target": 0}}


class TestKioskGraph:
    def test_structure_extends_tracker(self):
        g = build_kiosk_graph()
        assert g.topo_order() == ["T1", "T2", "T3", "T4", "T5", "T6"]
        assert g.sink_tasks() == ["T6"]
        assert g.predecessors("T6") == ["T5"]

    def test_cheap_t6_does_not_disturb_schedule_structure(self):
        """Adding the face task leaves T2||T3 + T4-dp4 intact and adds
        only T6's own cost to the latency."""
        m8 = State(n_models=8)
        cluster = SINGLE_NODE_SMP(4)
        tracker_sol = OptimalScheduler(cluster).solve(
            build_kiosk_graph(), m8
        )
        t4 = tracker_sol.iteration.placement("T4")
        assert t4.workers == 4
        from repro.apps.tracker.graph import build_tracker_graph

        base = OptimalScheduler(cluster).solve(build_tracker_graph(), m8)
        t6_cost = build_kiosk_graph().task("T6").cost(m8)
        assert tracker_sol.latency == pytest.approx(base.latency + t6_cost)

    def test_kiosk_executes(self):
        m2 = State(n_models=2)
        cluster = SINGLE_NODE_SMP(4)
        g = build_kiosk_graph()
        sol = OptimalScheduler(cluster).solve(g, m2)
        result = StaticExecutor(g, m2, cluster, sol).run(5)
        assert result.meta["slips"] == 0
        assert result.completed_count == 5

    def test_live_kiosk_gazes_at_tracked_people(self):
        """End to end with real kernels: T6's gaze targets are indices of
        actually-present people."""
        from repro.apps.tracker.graph import attach_kernels
        from repro.apps.video import VideoSource
        from repro.runtime.threaded import ThreadedRuntime

        video = VideoSource(n_targets=2, height=48, width=64, seed=21)
        live, statics = attach_kernels(build_kiosk_graph(), video)
        rt = ThreadedRuntime(live, State(n_models=2), static_inputs=statics,
                             op_timeout=30)
        res = rt.run(6)
        targets = [res.meta["outputs"]["gaze"][ts]["target"] for ts in range(6)]
        assert all(t in (0, 1) for t in targets)
