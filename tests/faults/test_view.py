"""ClusterView: the mutable degraded view of the cluster."""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults import ClusterView
from repro.sim.cluster import ClusterSpec


@pytest.fixture
def view() -> ClusterView:
    return ClusterView(ClusterSpec(nodes=2, procs_per_node=2))


class TestLiveness:
    def test_all_alive_initially(self, view):
        assert all(view.alive(p.index) for p in view.base.processors)
        assert view.node_alive(0) and view.node_alive(1)

    def test_kill_node_kills_its_processors(self, view):
        view.kill_node(1)
        assert not view.node_alive(1)
        assert not view.alive(2) and not view.alive(3)
        assert view.alive(0) and view.alive(1)

    def test_kill_processor_spares_node(self, view):
        view.kill_processor(2)
        assert not view.alive(2)
        assert view.node_alive(1)
        assert view.alive(3)

    def test_recover_node(self, view):
        view.kill_node(0)
        view.recover_node(0)
        assert view.node_alive(0)
        assert view.alive(0) and view.alive(1)

    def test_recovery_spares_other_proc_losses(self, view):
        view.kill_processor(1)
        view.kill_node(1)
        view.recover_node(1)
        assert not view.alive(1)  # node 0's individual loss persists
        assert view.alive(2) and view.alive(3)

    def test_speed_with_slowdown(self, view):
        view.slow_node(0, 0.5)
        assert view.speed(0) == pytest.approx(0.5)
        assert view.speed(2) == pytest.approx(1.0)


class TestOnChange:
    def test_on_change_callbacks(self, view):
        log: list[tuple[str, int]] = []
        view.on_change(lambda kind, target: log.append((kind, target)))
        view.kill_processor(3)
        view.kill_node(0)
        view.recover_node(0)
        assert log == [("proc-loss", 3), ("crash", 0), ("recovery", 0)]


class TestShape:
    def test_initial_shape_matches_base(self, view):
        assert view.shape() == view.base

    def test_shape_after_node_loss(self, view):
        view.kill_node(0)
        shape = view.shape()
        assert shape.nodes == 1
        assert shape.total_processors == 2

    def test_shape_after_proc_loss_non_uniform(self, view):
        view.kill_processor(3)
        shape = view.shape()
        assert shape.procs_by_node == (2, 1)

    def test_shape_raises_when_everything_dead(self, view):
        view.kill_node(0)
        view.kill_node(1)
        with pytest.raises(FaultError):
            view.shape()

    def test_mapping_dense_and_ordered(self, view):
        view.kill_processor(1)
        mapping = view.shape_to_physical()
        assert mapping == {0: 0, 1: 2, 2: 3}

    def test_mapping_matches_shape_size(self, view):
        view.kill_node(1)
        assert len(view.shape_to_physical()) == view.shape().total_processors
