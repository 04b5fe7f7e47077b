"""Unit tests for topology builders, channels, and rendering."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.builders import chain_graph, fork_join_graph, tracker_shape_graph
from repro.graph.channel import ChannelSpec
from repro.graph.render import to_ascii
from repro.state import State


class TestChannelSpec:
    def test_constant_size(self):
        assert ChannelSpec("c", item_bytes=100).item_size(State(n_models=1)) == 100

    def test_callable_size(self):
        c = ChannelSpec("c", item_bytes=lambda s: 10 * s.n_models)
        assert c.item_size(State(n_models=8)) == 80

    def test_bad_size_model_raises(self):
        c = ChannelSpec("c", item_bytes=lambda s: -5)
        with pytest.raises(GraphError):
            c.item_size(State(n_models=1))

    def test_invalid_capacity(self):
        with pytest.raises(GraphError):
            ChannelSpec("c", capacity=0)

    def test_with_capacity(self):
        c = ChannelSpec("c", item_bytes=1).with_capacity(5)
        assert c.capacity == 5 and c.name == "c"

    def test_empty_name(self):
        with pytest.raises(GraphError):
            ChannelSpec("")


class TestChain:
    def test_shape(self):
        g = chain_graph([1.0, 2.0, 3.0])
        assert g.topo_order() == ["t0", "t1", "t2"]
        assert g.source_tasks() == ["t0"] and g.sink_tasks() == ["t2"]

    def test_single_task(self):
        g = chain_graph([1.0])
        assert g.source_tasks() == ["t0"] and g.sink_tasks() == ["t0"]

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            chain_graph([])

    def test_period_applied_to_source_only(self):
        g = chain_graph([1.0, 1.0], period=0.5)
        assert g.task("t0").period == 0.5 and g.task("t1").period is None


class TestForkJoin:
    def test_shape(self):
        g = fork_join_graph(0.1, [1.0, 2.0, 3.0], 0.2)
        assert set(g.successors("source")) == {"branch0", "branch1", "branch2"}
        assert set(g.predecessors("sink")) == {"branch0", "branch1", "branch2"}

    def test_no_branches_rejected(self):
        with pytest.raises(GraphError):
            fork_join_graph(0.1, [], 0.2)


class TestTrackerShape:
    def test_figure2_topology(self, tracker_graph):
        g = tracker_graph
        assert g.topo_order() == ["T1", "T2", "T3", "T4", "T5"]
        assert set(g.successors("T1")) == {"T2", "T3", "T4"}
        assert g.successors("T4") == ["T5"]
        assert g.channel("color_model").static

    def test_missing_cost_rejected(self):
        with pytest.raises(GraphError):
            tracker_shape_graph({"T1": 1.0, "T2": 1.0})


class TestRender:
    def test_ascii_topo_listing(self):
        text = to_ascii(chain_graph([1.0, 2.0]))
        assert "t0: [] -> [c0]" in text
        assert "t1: [c0] -> []" in text
