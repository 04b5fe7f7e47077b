"""Unit tests for schedule sensitivity analysis and random DAG scheduling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScheduleError
from repro.core.enumerate import enumerate_schedules
from repro.core.optimal import OptimalScheduler
from repro.core.pipeline import best_pipelined
from repro.core.sensitivity import (
    perturbed_graph,
    perturbed_latency,
    sensitivity_profile,
)
from repro.graph.builders import random_dag
from repro.sched.listsched import list_schedule
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


class TestPerturbedGraph:
    def test_costs_scaled(self, tracker_graph, m8):
        noisy = perturbed_graph(tracker_graph, {"T4": 2.0})
        assert noisy.task("T4").cost(m8) == pytest.approx(
            2.0 * tracker_graph.task("T4").cost(m8)
        )
        assert noisy.task("T2").cost(m8) == tracker_graph.task("T2").cost(m8)

    def test_dp_chunks_scale_with_task(self, tracker_graph, m8):
        noisy = perturbed_graph(tracker_graph, {"T4": 2.0})
        orig = tracker_graph.task("T4").best_variant(m8, 4).duration
        scaled = noisy.task("T4").best_variant(m8, 4).duration
        assert scaled == pytest.approx(2.0 * orig)

    def test_invalid_factor(self, tracker_graph):
        with pytest.raises(ScheduleError):
            perturbed_graph(tracker_graph, {"T4": 0.0})


class TestPerturbedLatency:
    def test_identity_factors(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        lat = perturbed_latency(sol.iteration, tracker_graph, m8, smp4, {})
        assert lat == pytest.approx(sol.latency)

    def test_uniform_scaling_scales_latency(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        factors = {t.name: 1.5 for t in tracker_graph.tasks}
        lat = perturbed_latency(sol.iteration, tracker_graph, m8, smp4, factors)
        assert lat == pytest.approx(1.5 * sol.latency)

    def test_slower_critical_task_hurts(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        lat = perturbed_latency(sol.iteration, tracker_graph, m8, smp4, {"T4": 1.3})
        assert lat > sol.latency


class TestSensitivityProfile:
    def test_tracker_structure_is_robust(self, tracker_graph, m8, smp4):
        """The tracker's optimal structure survives 20% cost error: the
        guideline that rough calibration suffices."""
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        profile = sensitivity_profile(
            sol.iteration, tracker_graph, m8, smp4,
            error_level=0.2, trials=10, seed=1,
        )
        assert profile.mean_regret < 0.05
        assert profile.structure_stable_fraction >= 0.5

    def test_zero_error_zero_regret(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        profile = sensitivity_profile(
            sol.iteration, tracker_graph, m8, smp4,
            error_level=0.0, trials=3,
        )
        assert profile.max_regret == pytest.approx(0.0, abs=1e-9)
        assert profile.structure_stable_fraction == 1.0

    def test_parameter_validation(self, tracker_graph, m8, smp4):
        sol = OptimalScheduler(smp4).solve(tracker_graph, m8)
        with pytest.raises(ScheduleError):
            sensitivity_profile(sol.iteration, tracker_graph, m8, smp4, error_level=1.5)
        with pytest.raises(ScheduleError):
            sensitivity_profile(
                sol.iteration, tracker_graph, m8, smp4, error_level=0.1, trials=0
            )


class TestRandomDagProperties:
    """Cross-scheduler invariants on randomly generated graphs."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_tasks=st.integers(2, 6),
        procs=st.sampled_from([1, 2, 4]),
    )
    def test_optimal_le_heuristic_le_serial(self, seed, n_tasks, procs):
        g = random_dag(n_tasks, seed)
        cluster = SINGLE_NODE_SMP(procs)
        state = State(n_models=1)
        opt = enumerate_schedules(g, state, cluster).latency
        heur = list_schedule(g, state, cluster).latency
        serial = g.serial_time(state)
        cp = g.critical_path(state)
        assert cp - 1e-9 <= opt <= heur + 1e-9 <= serial + 2e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n_tasks=st.integers(2, 5))
    def test_optimal_schedules_validate_and_pipeline(self, seed, n_tasks):
        g = random_dag(n_tasks, seed, dp_prob=0.3)
        cluster = SINGLE_NODE_SMP(2)
        state = State(n_models=1)
        res = enumerate_schedules(g, state, cluster)
        for sched in res.schedules[:3]:
            sched.validate(g, state, cluster)
            piped = best_pipelined(sched, cluster)
            piped.validate_conflict_free()
            assert piped.period <= sched.latency + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_static_execution_has_no_slips(self, seed):
        """Any optimal schedule executes exactly as planned on the DES."""
        from repro.runtime.static_exec import StaticExecutor

        g = random_dag(4, seed)
        cluster = SINGLE_NODE_SMP(2)
        state = State(n_models=1)
        sol = OptimalScheduler(cluster).solve(g, state)
        result = StaticExecutor(g, state, cluster, sol).run(3)
        assert result.meta["slips"] == 0
        assert result.completed_count == 3

    def test_random_dag_deterministic(self):
        a, b = random_dag(5, 42), random_dag(5, 42)
        assert a.topo_order() == b.topo_order()
        s = State(n_models=1)
        assert [t.cost(s) for t in a.tasks] == [t.cost(s) for t in b.tasks]
