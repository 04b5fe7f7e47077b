"""Unit tests for the task-graph container."""

from __future__ import annotations

import pytest

from repro.errors import (
    CycleError,
    DuplicateNameError,
    GraphError,
    UnknownNameError,
)
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.state import State


def two_task_graph() -> TaskGraph:
    g = TaskGraph("g")
    g.add_channel(ChannelSpec("c", item_bytes=64))
    g.add_task(Task("p", cost=1.0, outputs=["c"]))
    g.add_task(Task("q", cost=2.0, inputs=["c"]))
    return g


class TestConstruction:
    def test_duplicate_task_name(self):
        g = TaskGraph()
        g.add_task(Task("t", cost=1.0))
        with pytest.raises(DuplicateNameError):
            g.add_task(Task("t", cost=2.0))

    def test_task_channel_name_collision(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("x"))
        with pytest.raises(DuplicateNameError):
            g.add_task(Task("x", cost=1.0))

    def test_unknown_lookup(self):
        g = TaskGraph()
        with pytest.raises(UnknownNameError):
            g.task("nope")
        with pytest.raises(UnknownNameError):
            g.channel("nope")

    def test_remove_task(self):
        g = two_task_graph()
        g.remove_task("q")
        assert "q" not in g
        with pytest.raises(UnknownNameError):
            g.remove_task("q")

    def test_len_iter_contains(self):
        g = two_task_graph()
        assert len(g) == 2 and "p" in g
        assert [t.name for t in g] == ["p", "q"]


class TestValidation:
    def test_valid_graph_passes(self):
        two_task_graph().validate()

    def test_undeclared_channel(self):
        g = TaskGraph()
        g.add_task(Task("t", cost=1.0, outputs=["ghost"]))
        with pytest.raises(UnknownNameError):
            g.validate()

    def test_consumer_without_producer(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("q", cost=1.0, inputs=["c"]))
        with pytest.raises(GraphError):
            g.validate()

    def test_two_producers_rejected(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("a", cost=1.0, outputs=["c"]))
        g.add_task(Task("b", cost=1.0, outputs=["c"]))
        with pytest.raises(GraphError):
            g.validate()

    def test_static_channel_needs_no_producer(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("p", cost=1.0, outputs=["c"]))
        g.add_task(Task("q", cost=1.0, inputs=["c", "cfg"]))
        g.validate()

    def test_window_on_a_static_channel_rejected(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_task(Task("q", cost=1.0, inputs=["cfg"], windows={"cfg": 2}))
        with pytest.raises(GraphError, match="static"):
            g.validate()

    def test_cycle_detected(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("ab"))
        g.add_channel(ChannelSpec("ba"))
        g.add_task(Task("a", cost=1.0, inputs=["ba"], outputs=["ab"]))
        g.add_task(Task("b", cost=1.0, inputs=["ab"], outputs=["ba"]))
        with pytest.raises(CycleError):
            g.validate()


class TestWithTasks:
    def test_a_copy_with_the_named_tasks_replaced(self):
        g = two_task_graph()
        out = g.with_tasks("g/live", {"q": {"cost": 5.0, "windows": {"c": 2}}})
        assert out.name == "g/live" and out.channels == g.channels
        assert out.task("p") is g.task("p")
        assert out.task("q").windows == {"c": 2} and out.task("q").cost(State(n=1)) == 5.0
        assert g.task("q").windows == {}

    def test_an_unknown_task_is_refused(self):
        with pytest.raises(UnknownNameError, match="nope"):
            two_task_graph().with_tasks("g2", {"nope": {"cost": 1.0}})

    def test_the_copy_is_validated(self):
        g = TaskGraph()
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_task(Task("q", cost=1.0, inputs=["cfg"]))
        with pytest.raises(GraphError, match="static"):
            g.with_tasks("bad", {"q": {"windows": {"cfg": 2}}})


class TestConnectivity:
    def test_producers_consumers(self, tracker_graph):
        assert [t.name for t in tracker_graph.producers("frame")] == ["T1"]
        assert {t.name for t in tracker_graph.consumers("frame")} == {"T2", "T3", "T4"}

    def test_succ_pred(self, tracker_graph):
        assert set(tracker_graph.successors("T1")) == {"T2", "T3", "T4"}
        assert set(tracker_graph.predecessors("T4")) == {"T1", "T2", "T3"}
        assert tracker_graph.predecessors("T1") == []

    def test_static_channels_do_not_induce_precedence(self, tracker_graph):
        # color_model is static: nothing precedes T4 through it.
        for pred in tracker_graph.predecessors("T4"):
            assert pred != "color_model"

    def test_channels_between(self, tracker_graph):
        between = tracker_graph.channels_between("T1", "T4")
        assert [c.name for c in between] == ["frame"]
        assert tracker_graph.channels_between("T2", "T3") == []

    def test_comm_bytes(self):
        g = two_task_graph()
        assert g.comm_bytes("p", "q", State(n_models=1)) == 64

    def test_sources_and_sinks(self, tracker_graph):
        assert tracker_graph.source_tasks() == ["T1"]
        assert tracker_graph.sink_tasks() == ["T5"]


class TestAnalysis:
    def test_topo_order_respects_precedence(self, tracker_graph):
        order = tracker_graph.topo_order()
        assert order.index("T1") < order.index("T2")
        assert order.index("T2") < order.index("T4")
        assert order.index("T3") < order.index("T4")
        assert order.index("T4") < order.index("T5")

    def test_topo_order_stable(self, tracker_graph):
        assert tracker_graph.topo_order() == tracker_graph.topo_order()

    def test_serial_time(self, simple_chain, m1):
        assert simple_chain.serial_time(m1) == pytest.approx(6.0)

    def test_critical_path_chain(self, simple_chain, m1):
        assert simple_chain.critical_path(m1) == pytest.approx(6.0)

    def test_critical_path_diamond(self, diamond, m1):
        # 0.5 + max(1, 1) + 0.25
        assert diamond.critical_path(m1) == pytest.approx(1.75)

    def test_critical_path_with_variants(self, tracker_graph, m8):
        full = tracker_graph.critical_path(m8)
        best = tracker_graph.critical_path(m8, use_best_variants=True, max_workers=4)
        assert best < full  # T4's dp4 variant shortens the path

    def test_copy_shares_structure(self, tracker_graph):
        c = tracker_graph.copy("clone")
        assert c.task_names == tracker_graph.task_names
        assert c.name == "clone"
        c.remove_task("T5")
        assert "T5" in tracker_graph
