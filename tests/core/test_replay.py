"""Unit tests for schedule-structure replay under a different state."""

from __future__ import annotations

import pytest

from repro.errors import ScheduleError
from repro.core.optimal import OptimalScheduler
from repro.core.replay import replay_pipelined, replay_with_state, variant_duration
from repro.core.schedule import IterationSchedule, Placement
from repro.core.sensitivity import perturbed_latency
from repro.graph.builders import chain_graph
from repro.sim.cluster import ClusterSpec, SINGLE_NODE_SMP
from repro.state import State


class TestVariantDuration:
    def test_serial(self, tracker_graph, m8):
        assert variant_duration(tracker_graph, "T2", "serial", m8) == pytest.approx(0.12)

    def test_dp(self, tracker_graph, m8):
        d = variant_duration(tracker_graph, "T4", "dp4", m8)
        assert d < tracker_graph.task("T4").cost(m8)

    def test_dp_on_non_dp_task_rejected(self, tracker_graph, m8):
        with pytest.raises(ScheduleError):
            variant_duration(tracker_graph, "T2", "dp2", m8)

    def test_unknown_label_rejected(self, tracker_graph, m8):
        with pytest.raises(ScheduleError):
            variant_duration(tracker_graph, "T2", "mystery", m8)


class TestReplay:
    def test_identity_at_same_state(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        replayed = replay_with_state(sol.iteration, tracker_graph, m8, smp4)
        assert replayed.latency == pytest.approx(sol.latency)

    def test_replayed_schedule_is_valid(self, tracker_graph, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, State(n_models=2))
        for m in (1, 4, 8):
            replayed = replay_with_state(
                sol.iteration, tracker_graph, State(n_models=m), smp4
            )
            replayed.validate(tracker_graph, State(n_models=m), smp4)

    def test_replay_never_beats_exact_optimum(self, tracker_graph, smp4):
        sched = OptimalScheduler(smp4)
        sol2 = sched.solve(tracker_graph, State(n_models=2))
        for m in (1, 4, 8):
            exact = sched.solve(tracker_graph, State(n_models=m)).latency
            replayed = replay_with_state(
                sol2.iteration, tracker_graph, State(n_models=m), smp4
            ).latency
            assert replayed >= exact - 1e-9

    def test_bad_order_rejected(self, m1):
        g = chain_graph([1.0, 1.0])
        # t1 scheduled before its predecessor t0 in start order.
        bad = IterationSchedule(
            [Placement("t1", (0,), 0.0, 1.0), Placement("t0", (1,), 0.5, 1.0)]
        )
        with pytest.raises(ScheduleError, match="predecessor"):
            replay_with_state(bad, g, m1, SINGLE_NODE_SMP(2))

    def test_half_speed_nodes_keep_the_solved_latency(self, m1):
        """Durations are cost / node speed, as in the search (2.0 at the parent)."""
        g = chain_graph([1.0, 1.0])
        slow = ClusterSpec(procs_by_node=[1, 1], node_speeds=[0.5, 0.5])
        sol = OptimalScheduler(slow).solve(g, m1)
        assert sol.latency == 4.0
        assert replay_with_state(sol.iteration, g, m1, slow).latency == 4.0
        assert perturbed_latency(sol.iteration, g, m1, slow, {}) == 4.0
        assert replay_pipelined(sol.iteration, g, m1, slow).latency == 4.0

    def test_replay_pipelined_recomputes_period(self, tracker_graph, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, State(n_models=1))
        heavier = replay_pipelined(
            sol.iteration, tracker_graph, State(n_models=8), smp4
        )
        assert heavier.period > sol.period  # heavier state -> slower rate
        heavier.validate_conflict_free()
