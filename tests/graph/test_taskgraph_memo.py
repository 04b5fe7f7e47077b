"""The structure a ``TaskGraph`` remembers is the structure it has.

``producers`` / ``consumers`` / ``successors`` / ``predecessors`` /
``topo_order`` and a passed ``validate`` are derived once and kept on the
instance; ``add_task`` / ``add_channel`` / ``remove_task`` drop them.  These
tests interleave the three writers with every query and compare each answer
(or each raised error) with a graph rebuilt from scratch, and with the plain
per-query scan the memo replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.errors import CycleError, GraphError, ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph

CHANNELS = [f"c{i}" for i in range(5)]
TASKS = [f"t{i}" for i in range(5)]


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (ReproError, KeyError) as exc:  # KeyError: source/sink on an undeclared channel
        return type(exc), str(exc)
    if isinstance(value, list):
        return [getattr(v, "name", v) for v in value]
    return value


def answers(graph: TaskGraph) -> dict:
    """Every structural query of ``graph``, errors included, by name."""
    out = {
        "topo_order": _outcome(graph.topo_order),
        "source_tasks": _outcome(graph.source_tasks),
        "sink_tasks": _outcome(graph.sink_tasks),
        "validate": _outcome(graph.validate),
    }
    for ch in (*graph.channel_names, "undeclared"):
        out["producers", ch] = _outcome(graph.producers, ch)
        out["consumers", ch] = _outcome(graph.consumers, ch)
    for name in (*graph.task_names, "nobody"):
        out["successors", name] = _outcome(graph.successors, name)
        out["predecessors", name] = _outcome(graph.predecessors, name)
    return out


def _lists(found: dict) -> dict:
    """The answers that are lists (the error texts carry the graph's name)."""
    return {k: v for k, v in found.items() if isinstance(v, list)}


def rebuilt(graph: TaskGraph) -> TaskGraph:
    """The same channels and tasks in a graph that has derived nothing yet."""
    fresh = TaskGraph(graph.name)
    for ch in graph.channels:
        fresh.add_channel(ch)
    for task in graph.tasks:
        fresh.add_task(task)
    return fresh


def scan_successors(graph: TaskGraph, name: str) -> list[str]:
    """The per-query scan the memo replaced (declared channels only)."""
    out: list[str] = []
    for ch in graph.task(name).outputs:
        if graph.channel(ch).static:
            continue
        for t in graph.tasks:
            if ch in t.inputs and t.name not in out:
                out.append(t.name)
    return out


class GraphEdits(RuleBasedStateMachine):
    """Writers in any order; after each, every query is asked (filling the
    memo the next writer must drop) and every returned list is scribbled on."""

    def __init__(self) -> None:
        super().__init__()
        self.graph = TaskGraph("edited")

    @rule(name=st.sampled_from(CHANNELS), static=st.booleans())
    def add_channel(self, name, static):
        if name not in self.graph.channel_names:
            self.graph.add_channel(ChannelSpec(name, item_bytes=8, static=static))

    @rule(
        name=st.sampled_from(TASKS),
        inputs=st.lists(st.sampled_from(CHANNELS), max_size=3, unique=True),
        outputs=st.lists(st.sampled_from(CHANNELS), max_size=3, unique=True),
    )
    def add_task(self, name, inputs, outputs):
        outputs = [ch for ch in outputs if ch not in inputs]
        if name not in self.graph:
            # Channels may be undeclared, shared between producers, or form
            # a cycle: the queries must then raise what a fresh graph raises.
            self.graph.add_task(Task(name, cost=1.0, inputs=inputs, outputs=outputs))

    @precondition(lambda self: len(self.graph) > 0)
    @rule(data=st.data())
    def remove_task(self, data):
        self.graph.remove_task(data.draw(st.sampled_from(self.graph.task_names)))

    @invariant()
    def answers_match_a_graph_built_from_scratch(self):
        expected = answers(rebuilt(self.graph))
        assert answers(self.graph) == expected
        for query in (self.graph.topo_order, self.graph.source_tasks,
                      self.graph.sink_tasks):
            try:
                query().append("scribble")
            except (ReproError, KeyError):
                pass
        for ch in self.graph.channel_names:
            self.graph.producers(ch).append(None)
            self.graph.consumers(ch).clear()
        declared = set(self.graph.channel_names)
        for task in self.graph.tasks:
            if not declared.issuperset((*task.inputs, *task.outputs)):
                continue
            self.graph.successors(task.name).append("scribble")
            self.graph.predecessors(task.name).clear()
            assert self.graph.successors(task.name) == scan_successors(
                self.graph, task.name
            )
        assert answers(self.graph) == expected


GraphEdits.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestGraphEdits = GraphEdits.TestCase


def _diamond() -> TaskGraph:
    g = TaskGraph("diamond")
    for ch in ("a", "b", "c", "d"):
        g.add_channel(ChannelSpec(ch, item_bytes=8))
    g.add_task(Task("src", cost=1.0, outputs=["a", "b"]))
    g.add_task(Task("left", cost=1.0, inputs=["a"], outputs=["c"]))
    g.add_task(Task("right", cost=1.0, inputs=["b"], outputs=["d"]))
    g.add_task(Task("join", cost=1.0, inputs=["c", "d"]))
    return g


def test_a_copy_derives_its_own_structure():
    g = _diamond()
    before = answers(g)
    clone = g.copy()
    assert answers(clone) == before
    clone.add_channel(ChannelSpec("e", item_bytes=8))
    clone.add_task(Task("tail", cost=1.0, inputs=["d"], outputs=["e"]))
    assert clone.successors("right") == ["join", "tail"]
    assert clone.topo_order()[-1] == "tail"
    assert answers(g) == before
    assert g.successors("right") == ["join"]


def test_an_invalid_graph_raises_every_time():
    cyclic = TaskGraph("cyclic")
    for ch in ("x", "y"):
        cyclic.add_channel(ChannelSpec(ch, item_bytes=8))
    cyclic.add_task(Task("p", cost=1.0, inputs=["y"], outputs=["x"]))
    cyclic.add_task(Task("q", cost=1.0, inputs=["x"], outputs=["y"]))
    two_writers = _diamond()
    two_writers.add_task(Task("src2", cost=1.0, outputs=["a"]))
    for graph, error in ((cyclic, CycleError), (two_writers, GraphError)):
        messages = []
        for _ in range(3):
            with pytest.raises(error) as caught:
                graph.validate()
            messages.append(str(caught.value))
        assert len(set(messages)) == 1
    with pytest.raises(CycleError):
        cyclic.topo_order()
    with pytest.raises(CycleError):
        cyclic.topo_order()
    # Repairing the graph is seen at once; breaking it again is too.
    two_writers.remove_task("src2")
    two_writers.validate()
    two_writers.validate()
    two_writers.add_task(Task("src2", cost=1.0, outputs=["a"]))
    with pytest.raises(GraphError, match="2 producers"):
        two_writers.validate()


def test_derived_graphs_answer_for_themselves():
    """``Task.replace`` / ``with_capacity`` rebuilds share no memo with the
    graph they were made from — each holds its own task objects."""
    base = build_tracker_graph()
    expected = answers(base)  # fills the base graph's memo first
    live, _statics = attach_kernels(
        base, VideoSource(n_targets=2, height=48, width=64, seed=5)
    )
    bounded = TaskGraph(base.name)
    for ch in base.channels:
        bounded.add_channel(ch if ch.static else ch.with_capacity(4))
    for task in base.tasks:
        bounded.add_task(task.replace(cost=2.0))
    for derived in (live, bounded):
        assert answers(derived) == answers(rebuilt(derived))
        assert _lists(answers(derived)) == _lists(expected)  # same wiring
        for ch in derived.channel_names:
            for task in (*derived.producers(ch), *derived.consumers(ch)):
                assert task is derived.task(task.name)
                assert task is not base.task(task.name)
    assert answers(base) == expected
