"""Shape tables and the failover controller."""

from __future__ import annotations

import pytest

from repro.core.optimal import OptimalScheduler
from repro.core.transition import DrainTransition, ImmediateTransition
from repro.errors import ShapeUnschedulable
from repro.faults import (
    ClusterView,
    FailoverController,
    ShapeTable,
    reachable_shapes,
)
from repro.faults.detect import Detection
from repro.graph.builders import chain_graph
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.state import State


@pytest.fixture
def graph():
    return chain_graph([1.0, 1.0])


@pytest.fixture
def state():
    return State(n_models=1)


def _every_processor_lost(base, max_node_failures, proc_failures):
    """The enumeration that removed every processor in turn (oracle):
    same shapes, same spec objects' values, same order."""
    seen = {}

    def node_losses(spec, budget):
        seen.setdefault(spec.shape_key(), spec)
        if budget > 0 and spec.nodes > 1:
            for n in range(spec.nodes):
                node_losses(spec.without_node(n), budget - 1)

    node_losses(base, max_node_failures)
    if proc_failures:
        for spec in list(seen.values()):
            if spec.total_processors > 1:
                for p in range(spec.total_processors):
                    seen.setdefault(spec.without_processor(p).shape_key(),
                                    spec.without_processor(p))
    return list(seen.values())


class TestReachableShapes:
    def test_homogeneous_cluster_canonicalizes(self):
        base = ClusterSpec(nodes=3, procs_per_node=2)
        shapes = reachable_shapes(base, max_node_failures=1, proc_failures=False)
        # Base + "any one node lost" — which node is irrelevant.
        assert len(shapes) == 2

    def test_proc_failures_add_shapes(self):
        base = ClusterSpec(nodes=2, procs_per_node=2)
        keys = {s.shape_key() for s in reachable_shapes(base)}
        assert ClusterSpec(procs_by_node=[2, 1]).shape_key() in keys
        assert ClusterSpec(procs_by_node=[1]).shape_key() in keys

    def test_never_empty(self):
        base = ClusterSpec(nodes=1, procs_per_node=1)
        shapes = reachable_shapes(base)
        assert [s.shape_key() for s in shapes] == [base.shape_key()]

    def test_two_node_failures(self):
        base = ClusterSpec(nodes=3, procs_per_node=1)
        shapes = reachable_shapes(base, max_node_failures=2, proc_failures=False)
        assert {s.total_processors for s in shapes} == {3, 2, 1}

    @pytest.mark.parametrize("base", [
        ClusterSpec(nodes=1, procs_per_node=1),
        ClusterSpec(nodes=2, procs_per_node=4),
        ClusterSpec(nodes=3, procs_per_node=1),
        ClusterSpec(procs_by_node=[4, 3, 2]),
        ClusterSpec(procs_by_node=[2, 1, 2], node_speeds=[1.0, 2.0, 1.0]),
    ], ids=["1x1", "2x4", "3x1", "4+3+2", "hetero"])
    @pytest.mark.parametrize("failures", [0, 1, 2])
    def test_node_loss_shapes_are_the_prefix(self, base, failures):
        """What ``verify_shape_table`` reads S012's shapes off: one
        enumeration, whose node-loss part is what a node-only one lists."""
        from repro.faults.failover import _reachable_shapes

        for proc_failures in (False, True):
            shapes, node_shapes = _reachable_shapes(base, failures, proc_failures)
            assert shapes == reachable_shapes(base, failures, proc_failures)
            assert shapes == _every_processor_lost(base, failures, proc_failures)
            assert shapes[:node_shapes] == reachable_shapes(
                base, failures, proc_failures=False)


class TestShapeTable:
    def test_build_and_lookup(self, graph, state):
        base = ClusterSpec(nodes=2, procs_per_node=1)
        table = ShapeTable.build(graph, state, base)
        sol = table.lookup(base)
        assert sol.latency == pytest.approx(2.0)
        degraded = table.lookup(ClusterSpec(nodes=1, procs_per_node=1))
        assert degraded.period >= sol.period

    def test_lookup_unknown_shape_raises(self, graph, state):
        base = ClusterSpec(nodes=2, procs_per_node=1)
        table = ShapeTable.build(graph, state, base, proc_failures=False)
        with pytest.raises(ShapeUnschedulable):
            table.lookup(ClusterSpec(nodes=4, procs_per_node=4))

    def test_contains_and_len(self, graph, state):
        base = ClusterSpec(nodes=2, procs_per_node=1)
        table = ShapeTable.build(graph, state, base)
        assert base in table
        assert len(table) == 2
        assert len(table.solutions()) == 2

    def test_degraded_schedule_fits_shape(self, graph, state):
        base = ClusterSpec(nodes=2, procs_per_node=2)
        table = ShapeTable.build(graph, state, base)
        for key in table:
            spec = ClusterSpec(
                procs_by_node=[p for p, _s in key],
                node_speeds=[s for _p, s in key],
            )
            sol = table._solutions[key]
            assert sol.pipelined.n_procs <= spec.total_processors

    def test_unsolvable_shape_is_left_out(self, graph, state):
        # A shape whose solve raises a schedule error is skipped, not
        # raised: here every degraded shape blows a one-node search budget.
        base = ClusterSpec(nodes=2, procs_per_node=1)

        def factory(spec):
            healthy = spec.total_processors == base.total_processors
            return OptimalScheduler(spec, node_limit=2_000_000 if healthy else 1)

        table = ShapeTable.build(graph, state, base, scheduler_factory=factory)
        assert list(table) == [base.shape_key()]
        with pytest.raises(ShapeUnschedulable):
            table.lookup(ClusterSpec(nodes=1, procs_per_node=1))

    def test_build_matches_solving_each_shape(self, graph, state):
        # The table holds, in shape order, what the shape's own scheduler
        # solves for it.
        base = ClusterSpec(nodes=2, procs_per_node=2)
        shapes = reachable_shapes(base, 1, True)
        table = ShapeTable.build(graph, state, base)
        assert list(table) == [spec.shape_key() for spec in shapes]
        for spec in shapes:
            own = OptimalScheduler(spec).solve(graph, state)
            got = table.lookup(spec)
            assert got.summary() == own.summary()
            assert got.iteration.canonical_key() == own.iteration.canonical_key()

    def test_cached_build_roundtrip(self, graph, state, tmp_path):
        from repro.core.cache import ScheduleCache

        base = ClusterSpec(nodes=2, procs_per_node=2)
        cache = ScheduleCache(tmp_path / "shapes")
        first = ShapeTable.build(graph, state, base, cache=cache)
        assert cache.stats.stores == len(first)
        second = ShapeTable.build(graph, state, base, cache=cache)
        assert cache.stats.hits == len(first)
        assert [s.summary() for s in first.solutions()] == [
            s.summary() for s in second.solutions()
        ]


class TestFailoverController:
    def make(self, graph, state, policy):
        sim = Simulator()
        base = ClusterSpec(nodes=2, procs_per_node=1)
        view = ClusterView(base)
        table = ShapeTable.build(graph, state, base)
        return view, FailoverController(table, view, policy)

    def test_initial_state(self, graph, state):
        view, ctl = self.make(graph, state, DrainTransition())
        assert ctl.active.latency == pytest.approx(2.0)
        assert ctl.mapping == {0: 0, 1: 1}
        assert ctl.switch_count == 0

    def test_failover_on_node_crash(self, graph, state):
        view, ctl = self.make(graph, state, DrainTransition(setup=0.5))
        old = ctl.active
        view.kill_node(0)
        record = ctl.on_detection(Detection(time=3.0, kind="node-failure", node=0))
        assert record is not None
        assert ctl.switch_count == 1
        assert ctl.active is not old
        assert ctl.mapping == {0: 1}
        # Drain: stall covers the old latency plus setup.
        assert record.effect.stall == pytest.approx(old.latency + 0.5)
        assert ctl.resume_at == pytest.approx(3.0 + old.latency + 0.5)

    def test_immediate_policy_loses_in_flight(self, graph, state):
        view, ctl = self.make(graph, state, ImmediateTransition())
        view.kill_node(1)
        record = ctl.on_detection(Detection(time=2.0, kind="node-failure", node=1))
        assert record.effect.lost_iterations > 0
        assert ctl.total_lost_iterations == record.effect.lost_iterations

    def test_detection_without_shape_change_is_noop(self, graph, state):
        view, ctl = self.make(graph, state, DrainTransition())
        assert ctl.on_detection(Detection(time=1.0, kind="slowdown", node=0)) is None
        assert ctl.switch_count == 0

    def test_failback_on_recovery(self, graph, state):
        view, ctl = self.make(graph, state, DrainTransition())
        view.kill_node(0)
        ctl.on_detection(Detection(time=3.0, kind="node-failure", node=0))
        view.recover_node(0)
        record = ctl.on_detection(Detection(time=8.0, kind="node-recovery", node=0))
        assert record is not None
        assert ctl.switch_count == 2
        assert ctl.mapping == {0: 0, 1: 1}
