"""Unit tests for the cluster model."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError
from repro.sim.cluster import ClusterSpec, Processor, SINGLE_NODE_SMP, STAMPEDE_CLUSTER


class TestClusterSpec:
    def test_paper_platform_shape(self):
        c = STAMPEDE_CLUSTER()
        assert c.nodes == 4 and c.procs_per_node == 4
        assert c.total_processors == 16 and len(c) == 16

    def test_processor_indexing(self):
        c = ClusterSpec(nodes=2, procs_per_node=3)
        p = c.processor(4)
        assert (p.index, p.node, p.slot) == (4, 1, 1)

    def test_indices_dense_and_ordered(self):
        c = ClusterSpec(nodes=3, procs_per_node=2)
        assert [p.index for p in c] == list(range(6))

    def test_same_node(self):
        c = ClusterSpec(nodes=2, procs_per_node=2)
        assert c.same_node(0, 1)
        assert not c.same_node(1, 2)
        assert c.same_node(2, 3)

    def test_node_processors(self):
        c = ClusterSpec(nodes=2, procs_per_node=2)
        assert [p.index for p in c.node_processors(1)] == [2, 3]

    def test_node_speeds(self):
        c = ClusterSpec(nodes=2, procs_per_node=1, node_speeds=[1.0, 2.0])
        assert c.processor(1).speed == 2.0

    def test_out_of_range_rejected(self):
        c = SINGLE_NODE_SMP(2)
        with pytest.raises(ClusterError):
            c.processor(2)
        with pytest.raises(ClusterError):
            c.node_processors(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nodes=0, procs_per_node=1),
            dict(nodes=1, procs_per_node=0),
            dict(nodes=2, procs_per_node=1, node_speeds=[1.0]),
            dict(nodes=1, procs_per_node=1, node_speeds=[0.0]),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ClusterError):
            ClusterSpec(**kwargs)

    def test_equality_and_hash(self):
        assert SINGLE_NODE_SMP(4) == SINGLE_NODE_SMP(4)
        assert SINGLE_NODE_SMP(4) != SINGLE_NODE_SMP(2)
        assert hash(SINGLE_NODE_SMP(4)) == hash(SINGLE_NODE_SMP(4))

    def test_processor_ordering(self):
        a, b = Processor(0, 0, 0), Processor(1, 0, 1)
        assert a < b


class TestDegradedShapes:
    def test_without_node_drops_its_processors(self):
        c = ClusterSpec(nodes=3, procs_per_node=2, node_speeds=[1.0, 2.0, 3.0])
        d = c.without_node(1)
        assert d.nodes == 2 and d.total_processors == 4
        assert d.node_speeds == (1.0, 3.0)
        assert [p.index for p in d] == [0, 1, 2, 3]

    def test_without_last_node_rejected(self):
        with pytest.raises(ClusterError):
            SINGLE_NODE_SMP(4).without_node(0)

    def test_without_processor_makes_non_uniform(self):
        c = ClusterSpec(nodes=2, procs_per_node=2)
        d = c.without_processor(3)
        assert d.procs_by_node == (2, 1)
        assert not d.uniform and c.uniform
        assert d.procs_per_node == 2  # dp cap = largest node
        assert [(p.node, p.slot) for p in d] == [(0, 0), (0, 1), (1, 0)]
        assert [p.index for p in d.node_processors(1)] == [2]

    def test_without_processor_removes_emptied_node(self):
        c = ClusterSpec(nodes=2, procs_per_node=1)
        d = c.without_processor(0)
        assert d.nodes == 1 and d.total_processors == 1

    def test_explicit_procs_by_node(self):
        c = ClusterSpec(procs_by_node=[3, 1])
        assert c.nodes == 2 and c.total_processors == 4
        assert c.node_of(3) == 1
        with pytest.raises(ClusterError):
            ClusterSpec(nodes=2, procs_per_node=2, procs_by_node=[2, 2])

    def test_shape_key_ignores_which_node_died(self):
        c = ClusterSpec(nodes=3, procs_per_node=2)
        assert c.without_node(0).shape_key() == c.without_node(2).shape_key()
        assert c.without_processor(0).shape_key() == c.without_processor(5).shape_key()
        assert c.without_node(0).shape_key() != c.without_processor(0).shape_key()

    def test_degraded_equality_and_hash(self):
        c = ClusterSpec(nodes=2, procs_per_node=2)
        assert c.without_processor(3) == c.without_processor(3)
        assert hash(c.without_processor(3)) == hash(c.without_processor(3))
        assert c.without_processor(3) != c.without_processor(1)
