"""Unit tests for the latency/throughput frontier."""

from __future__ import annotations

import pytest

from repro.core.frontier import latency_throughput_frontier
from repro.core.optimal import OptimalScheduler
from repro.core.pipeline import naive_pipeline
from repro.graph.builders import chain_graph, random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State


class TestTrackerFrontier:
    @pytest.fixture(scope="class")
    def frontier(self):
        from repro.apps.tracker.graph import build_tracker_graph

        return latency_throughput_frontier(
            build_tracker_graph(), State(n_models=8), SINGLE_NODE_SMP(4),
            latency_slack=3.0,
        )

    def test_sorted_and_pareto(self, frontier):
        lats = [p.latency for p in frontier]
        thrs = [p.throughput for p in frontier]
        assert lats == sorted(lats)
        # Along a Pareto frontier, higher latency must buy throughput.
        assert thrs == sorted(thrs)
        assert len(set(zip(lats, thrs))) == len(frontier)

    def test_leftmost_point_is_papers_choice(self, frontier):
        from repro.apps.tracker.graph import build_tracker_graph

        sol = OptimalScheduler(SINGLE_NODE_SMP(4)).solve(
            build_tracker_graph(), State(n_models=8)
        )
        assert frontier[0].latency == pytest.approx(sol.latency)
        assert frontier[0].throughput == pytest.approx(sol.throughput)

    def test_naive_pipeline_anchors_throughput_end(self, frontier):
        from repro.apps.tracker.graph import build_tracker_graph

        naive = naive_pipeline(
            build_tracker_graph(), State(n_models=8), SINGLE_NODE_SMP(4)
        )
        assert frontier[-1].throughput == pytest.approx(naive.throughput)

    def test_wasted_space_quantified(self, frontier):
        """§3.3's trade-off: the latency-first point gives up a few
        percent of throughput relative to the frontier's right end."""
        gap = frontier[-1].throughput / frontier[0].throughput - 1.0
        assert 0.0 < gap < 0.10

    def test_all_schedules_conflict_free(self, frontier):
        for p in frontier:
            p.schedule.validate_conflict_free()


class TestFrontierGeneral:
    def test_single_point_when_no_tradeoff(self, m1):
        """A chain on one processor has exactly one operating point."""
        g = chain_graph([1.0, 1.0])
        front = latency_throughput_frontier(g, m1, SINGLE_NODE_SMP(1))
        assert len(front) == 1
        assert front[0].latency == pytest.approx(2.0)

    def test_chain_on_two_procs_pipeline_dominates(self, m1):
        """Perfectly balanced chain: optimal latency already achieves the
        area-bound throughput, so the frontier is a single point."""
        g = chain_graph([1.0, 1.0])
        front = latency_throughput_frontier(g, m1, SINGLE_NODE_SMP(2))
        assert len(front) == 1
        assert front[0].throughput == pytest.approx(1.0)

    def test_slack_zero_still_includes_naive_anchor(self, m1):
        g = chain_graph([1.0, 2.0])
        front = latency_throughput_frontier(
            g, m1, SINGLE_NODE_SMP(2), latency_slack=0.0
        )
        assert front[0].latency == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_random_graphs_monotone_frontier(self, seed):
        g = random_dag(5, seed, dp_prob=0.3)
        front = latency_throughput_frontier(
            g, State(n_models=1), SINGLE_NODE_SMP(2), latency_slack=1.0,
            max_solutions=64,
        )
        assert front, "frontier can never be empty"
        lats = [p.latency for p in front]
        thrs = [p.throughput for p in front]
        assert lats == sorted(lats) and thrs == sorted(thrs)

    @pytest.mark.parametrize("seed", range(12))
    def test_leftmost_point_has_the_minimal_latency(self, seed):
        """With the defaults (slack 1.0, 256 members) the within-slack set
        fills before the search reaches L on seeds 1, 3 and 8; the leftmost
        point must be the paper's operating point all the same."""
        g, state = random_dag(5, seed, dp_prob=0.3), State(n_models=4)
        cluster = ClusterSpec(nodes=2, procs_per_node=2)
        front = latency_throughput_frontier(g, state, cluster, include_naive=False)
        assert front[0].latency == OptimalScheduler(cluster).solve(g, state).latency
