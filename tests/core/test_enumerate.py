"""Unit tests for the Figure 6 enumeration (minimal latency L and set S)."""

from __future__ import annotations

import pytest

from repro.errors import ScheduleError
from repro.core.enumerate import enumerate_schedules, search_schedules
from repro.core.parallel import incumbent_of, make_request
from repro.graph.builders import chain_graph, fork_join_graph, random_dag
from repro.graph.channel import ChannelSpec
from repro.graph.task import DataParallelSpec, Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommCost, CommModel
from repro.state import State


class TestKnownOptima:
    def test_chain_is_serial(self, m1):
        """A chain has no parallelism: L = sum of costs on any cluster."""
        g = chain_graph([1.0, 2.0, 3.0])
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(4))
        assert res.latency == pytest.approx(6.0)

    def test_fork_join_parallel_branches(self, m1):
        g = fork_join_graph(0.5, [1.0, 2.0, 3.0], 0.25)
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(4))
        # 0.5 + max branch (3.0) + 0.25: branches run concurrently.
        assert res.latency == pytest.approx(3.75)

    def test_fork_join_on_one_processor_serializes(self, m1):
        g = fork_join_graph(0.5, [1.0, 2.0], 0.25)
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(1))
        assert res.latency == pytest.approx(0.5 + 1.0 + 2.0 + 0.25)

    def test_two_wide_fork_on_two_procs(self, m1):
        g = fork_join_graph(0.0, [2.0, 2.0, 2.0, 2.0], 0.0)
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(2))
        # 4 branches of 2s on 2 procs: two waves.
        assert res.latency == pytest.approx(4.0)

    def test_data_parallel_variant_chosen(self, m8):
        g = TaskGraph("dp")
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("src", cost=0.0, outputs=["c"]))
        g.add_task(
            Task(
                "heavy",
                cost=8.0,
                inputs=["c"],
                data_parallel=DataParallelSpec(worker_counts=[2, 4]),
            )
        )
        res = enumerate_schedules(g, m8, SINGLE_NODE_SMP(4))
        assert res.latency == pytest.approx(2.0)
        heavy = res.best.placement("heavy")
        assert heavy.workers == 4 and heavy.variant == "dp4"

    def test_dp_capped_by_node_width(self, m8):
        g = TaskGraph("dp")
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("src", cost=0.0, outputs=["c"]))
        g.add_task(
            Task(
                "heavy",
                cost=8.0,
                inputs=["c"],
                data_parallel=DataParallelSpec(worker_counts=[2, 8]),
            )
        )
        res = enumerate_schedules(g, m8, ClusterSpec(nodes=2, procs_per_node=2))
        # dp8 does not fit in a 2-proc node; dp2 gives 4.0.
        assert res.latency == pytest.approx(4.0)

    def test_single_task(self, m1):
        g = chain_graph([5.0])
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(4))
        assert res.latency == pytest.approx(5.0)
        assert len(res.best) == 1


class TestCommunicationAware:
    def test_cross_node_cost_respected(self, m1):
        """With expensive inter-node links, both tasks stay on one node."""
        g = chain_graph([1.0, 1.0], item_bytes=1)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster,
            intra_node=CommCost(0.0, float("inf")),
            inter_node=CommCost(10.0, float("inf")),
        )
        res = enumerate_schedules(g, m1, cluster, comm=comm)
        assert res.latency == pytest.approx(2.0)
        procs = {pl.primary for pl in res.best}
        assert len({cluster.node_of(p) for p in procs}) == 1

    def test_parallelism_worth_paying_comm(self, m1):
        """Cheap comm: branches spread over nodes despite the transfer."""
        g = fork_join_graph(0.0, [2.0, 2.0], 0.0, item_bytes=1)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster,
            intra_node=CommCost(0.0, float("inf")),
            inter_node=CommCost(0.1, float("inf")),
        )
        res = enumerate_schedules(g, m1, cluster, comm=comm)
        # Spread: branch1 starts remotely at 0.1, ends 2.1; the sink joins
        # on the remote node (branch0's result crosses once): L = 2.1.
        assert res.latency == pytest.approx(2.1)
        nodes = {cluster.node_of(pl.primary) for pl in res.best}
        assert len(nodes) == 2  # the iteration does spread


class TestSetS:
    def test_set_contains_distinct_optima(self, m1):
        """Two independent 1s branches on 2 procs: both assignments optimal."""
        g = fork_join_graph(0.0, [1.0, 1.0], 0.0)
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(2))
        assert res.latency == pytest.approx(1.0)
        assert res.optimal_count >= 2
        keys = {s.canonical_key() for s in res.schedules}
        assert len(keys) == len(res.schedules)

    def test_max_solutions_caps_materialization(self, m1):
        g = fork_join_graph(0.0, [1.0, 1.0, 1.0], 0.0)
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(4), max_solutions=1)
        assert len(res.schedules) == 1
        assert res.optimal_count >= 1

    def test_every_member_validates(self, tracker_graph, m8, smp4):
        res = enumerate_schedules(tracker_graph, m8, smp4)
        for s in res.schedules:
            s.validate(tracker_graph, m8, smp4)

    @pytest.mark.parametrize("seed", range(30))
    def test_full_set_under_slack_keeps_a_latency_L_schedule(self, seed):
        """A set already full of within-slack members must still take a leaf
        that improves or equals L: ``schedules`` always holds a member of
        latency ``result.latency`` and ``.best`` is one (it used to count
        such a leaf without storing it — 116 of these 360 combinations)."""
        graph, state = random_dag(5, seed, dp_prob=0.3), State(n_models=4)
        cluster = ClusterSpec(nodes=2, procs_per_node=2)
        for slack in (0.1, 0.3):
            for cap in (2, 8, 64):
                req = make_request(graph, state, cluster, mode="enumerate",
                                   max_solutions=cap, latency_slack=slack)
                for incumbent in (incumbent_of(req)[0], None):
                    res = search_schedules(
                        req.problem, state, cluster, None, max_solutions=cap,
                        latency_slack=slack, incumbent=incumbent,
                    )
                    assert len(res.schedules) <= cap
                    assert min(s.latency for s in res.schedules) == res.latency
                    assert res.best.latency == res.latency


class TestGuards:
    def test_node_limit(self, m8, smp4, tracker_graph):
        with pytest.raises(ScheduleError, match="node_limit"):
            enumerate_schedules(tracker_graph, m8, smp4, node_limit=3)

    def test_empty_graph(self, m1):
        res = enumerate_schedules(TaskGraph("empty"), m1, SINGLE_NODE_SMP(1))
        assert res.latency == 0.0

    def test_heterogeneous_speeds(self, m1):
        """A 2x-speed node halves the serial chain latency."""
        g = chain_graph([2.0, 2.0])
        cluster = ClusterSpec(nodes=2, procs_per_node=1, node_speeds=[1.0, 2.0])
        res = enumerate_schedules(g, m1, cluster)
        assert res.latency == pytest.approx(2.0)
        for pl in res.best:
            assert cluster.node_of(pl.primary) == 1


class TestSameProcessorPlacement:
    def test_same_proc_beats_earlier_free_proc_under_costly_comm(self, m1):
        """With expensive intra-node transfers, the consumer belongs on the
        producer's own processor (same-proc tier is free) even though the
        other processor is free earlier — a case a pure earliest-free
        canonicalization would miss."""
        g = chain_graph([1.0, 1.0], item_bytes=100)
        cluster = SINGLE_NODE_SMP(2)
        comm = CommModel(
            cluster, intra_node=CommCost(latency=10.0, bandwidth=float("inf"))
        )
        res = enumerate_schedules(g, m1, cluster, comm=comm)
        assert res.latency == pytest.approx(2.0)
        t0 = res.best.placement("t0")
        t1 = res.best.placement("t1")
        assert t0.primary == t1.primary

    def test_cheap_comm_still_spreads(self, m1):
        """Sanity: with free communication the extra same-proc candidates
        change nothing (parallel branches still spread)."""
        g = fork_join_graph(0.0, [1.0, 1.0], 0.0)
        res = enumerate_schedules(g, m1, SINGLE_NODE_SMP(2))
        assert res.latency == pytest.approx(1.0)
