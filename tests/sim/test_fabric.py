"""Unit tests for the contended communication fabric."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError
from repro.sim.cluster import ClusterSpec, SINGLE_NODE_SMP
from repro.sim.engine import Simulator
from repro.sim.fabric import LinkFabric
from repro.sim.network import CommCost, CommModel


def make_fabric(nodes=2, procs=2, inter_latency=1.0, **kw):
    sim = Simulator()
    cluster = ClusterSpec(nodes=nodes, procs_per_node=procs)
    comm = CommModel(
        cluster,
        intra_node=CommCost(0.5, float("inf")),
        inter_node=CommCost(inter_latency, float("inf")),
    )
    return sim, LinkFabric(sim, cluster, comm, **kw)


def transfers(sim, fabric, *pairs):
    """Start one 100-byte transfer per ``(src, dst)`` now; returns the list
    the end times land in, in completion order."""
    ends = []
    for src, dst in pairs:
        fabric.transfer(100, src, dst, lambda: ends.append(sim.now))
    sim.run()
    return ends


class TestTransferTiming:
    def test_same_proc_free(self):
        sim, fabric = make_fabric()
        assert transfers(sim, fabric, (0, 0)) == [0.0]

    def test_uncontended_transfer_takes_cost_time(self):
        sim, fabric = make_fabric()
        assert transfers(sim, fabric, (0, 2)) == pytest.approx([1.0])  # inter-node

    def test_concurrent_transfers_serialize_on_shared_link(self):
        sim, fabric = make_fabric()
        # Both transfers cross the same node pair (0 <-> 1).
        assert transfers(sim, fabric, (0, 2), (1, 3)) == pytest.approx([1.0, 2.0])
        assert fabric.contended_time == pytest.approx(1.0)

    def test_independent_buses_do_not_contend(self):
        sim, fabric = make_fabric()
        # node 0 bus, node 1 bus
        assert transfers(sim, fabric, (0, 1), (2, 3)) == pytest.approx([0.5, 0.5])
        assert fabric.contended_time == 0.0

    def test_link_capacity_two_allows_pairs(self):
        sim, fabric = make_fabric(link_capacity=2)
        assert transfers(sim, fabric, (0, 2), (0, 2)) == pytest.approx([1.0, 1.0])

    def test_then_runs_one_heap_entry_after_the_link_is_released(self):
        """The places a transfer takes in the heap's order: it requests its
        link one entry after the call (what was already queued for the
        instant comes first), and ``then`` runs one entry after the release
        (a call for the release instant made while the data was crossing
        comes between the two)."""
        sim, fabric = make_fabric()
        link = fabric._links[(0, 1)]
        order = []
        sim.call_at(0.0, lambda: order.append(("links in use", link.in_use)))
        fabric.transfer(100, 0, 2, lambda: order.append(("then", sim.now)))
        sim.call_at(0.5, sim.call_at, 1.0, order.append, ("made at 0.5", 1.0))
        sim.run()
        assert order == [("links in use", 0), ("made at 0.5", 1.0), ("then", 1.0)]

    def test_invalid_capacity(self):
        sim = Simulator()
        cluster = SINGLE_NODE_SMP(2)
        with pytest.raises(ClusterError):
            LinkFabric(sim, cluster, CommModel.free(cluster), link_capacity=0)


class TestContendedExecution:
    def test_contention_free_schedule_matches_plain_comm(self, m1):
        """With one consumer per producer nothing contends: the contended
        executor reproduces the plain-comm timing exactly."""
        from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
        from repro.graph.builders import chain_graph
        from repro.runtime.static_exec import StaticExecutor

        g = chain_graph([1.0, 1.0], item_bytes=100)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster, inter_node=CommCost(0.5, float("inf")),
            intra_node=CommCost(0.0, float("inf")),
        )
        it = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.5, 1.0)]
        )
        sched = PipelinedSchedule(it, period=2.5, shift=0, n_procs=2)
        plain = StaticExecutor(g, m1, cluster, sched, comm=comm).run(3)
        contended = StaticExecutor(
            g, m1, cluster, sched, comm=comm, contended=True
        ).run(3)
        assert contended.meta["contended_time"] == 0.0
        assert contended.latencies() == pytest.approx(plain.latencies())

    def test_fanin_over_one_link_slips(self, m8):
        """A fork-join whose two branch results cross the same link at the
        same instant: the schedule (computed contention-free) slips by the
        serialized transfer."""
        from repro.core.optimal import OptimalScheduler
        from repro.graph.builders import fork_join_graph
        from repro.runtime.static_exec import StaticExecutor

        g = fork_join_graph(0.0, [1.0, 1.0], 0.5, item_bytes=100)
        cluster = ClusterSpec(nodes=2, procs_per_node=2)
        comm = CommModel(
            cluster,
            intra_node=CommCost(0.0, float("inf")),
            inter_node=CommCost(0.3, float("inf")),
        )
        sol = OptimalScheduler(cluster, comm=comm).solve(g, m8)
        plain = StaticExecutor(g, m8, cluster, sol, comm=comm).run(4)
        contended = StaticExecutor(
            g, m8, cluster, sol, comm=comm, contended=True
        ).run(4)
        assert plain.meta["slips"] == 0
        # Contention can only delay, never speed up.
        for ts in range(4):
            lat_p = plain.latency(ts)
            lat_c = contended.latency(ts)
            assert lat_c is not None and lat_p is not None
            assert lat_c >= lat_p - 1e-9
