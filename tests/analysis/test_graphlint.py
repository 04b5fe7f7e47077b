"""Pass 1 (graph lint): one seeded true-positive graph per G rule."""

from __future__ import annotations

from repro.analysis import Severity, lint_graph
from repro.graph.builders import chain_graph, fork_join_graph
from repro.graph.channel import ChannelSpec
from repro.graph.task import DataParallelSpec, Task
from repro.graph.taskgraph import TaskGraph
from repro.state import StateSpace

STATES = StateSpace.range("n_models", 1, 3)


def rules(report):
    return {f.rule for f in report.findings}


def test_clean_graphs_have_no_findings():
    for g in (chain_graph([1.0, 2.0]), fork_join_graph(0.1, [1.0, 0.5], 0.2)):
        report = lint_graph(g, states=STATES)
        assert not report.findings, report.summary()


def test_g001_cycle():
    g = TaskGraph("cycle")
    g.add_channel(ChannelSpec("ab"))
    g.add_channel(ChannelSpec("ba"))
    g.add_task(Task("A", 1.0, inputs=["ba"], outputs=["ab"]))
    g.add_task(Task("B", 1.0, inputs=["ab"], outputs=["ba"]))
    report = lint_graph(g)
    assert "G001" in rules(report)
    (f,) = [f for f in report if f.rule == "G001"]
    assert "A" in f.message and "B" in f.message


def test_g002_undeclared_channel():
    g = TaskGraph("ghost")
    g.add_task(Task("A", 1.0, outputs=["phantom"]))
    report = lint_graph(g)
    assert "G002" in rules(report)
    assert "phantom" in [f for f in report if f.rule == "G002"][0].message


def test_g003_unwritten_channel():
    g = TaskGraph("unwritten")
    g.add_channel(ChannelSpec("never"))
    g.add_task(Task("A", 1.0, inputs=["never"]))
    assert "G003" in rules(lint_graph(g))


def test_g004_multiple_producers():
    g = TaskGraph("multi")
    g.add_channel(ChannelSpec("shared"))
    g.add_task(Task("A", 1.0, outputs=["shared"]))
    g.add_task(Task("B", 1.0, outputs=["shared"]))
    g.add_task(Task("C", 1.0, inputs=["shared"]))
    assert "G004" in rules(lint_graph(g))


def test_g005_orphan_channel_is_warning():
    g = TaskGraph("orphan")
    g.add_channel(ChannelSpec("floating"))
    g.add_task(Task("A", 1.0))
    report = lint_graph(g)
    (f,) = [f for f in report if f.rule == "G005"]
    assert f.severity is Severity.WARNING


def test_g006_unreachable_task():
    g = TaskGraph("island")
    g.add_channel(ChannelSpec("main"))
    g.add_channel(ChannelSpec("dead"))
    g.add_task(Task("src", 1.0, outputs=["main"]))
    g.add_task(Task("ok", 1.0, inputs=["main"]))
    g.add_task(Task("stranded", 1.0, inputs=["dead"]))
    report = lint_graph(g)
    assert "G006" in rules(report)
    assert "stranded" in [f for f in report if f.rule == "G006"][0].location


def test_g007_size_model_fails_for_state():
    def bad_size(state):
        if state["n_models"] > 1:
            raise ValueError("no size for you")
        return 8

    g = TaskGraph("sized")
    g.add_channel(ChannelSpec("c", item_bytes=bad_size))
    g.add_task(Task("A", 1.0, outputs=["c"]))
    g.add_task(Task("B", 1.0, inputs=["c"]))
    report = lint_graph(g, states=STATES)
    findings = [f for f in report if f.rule == "G007"]
    assert len(findings) == 1  # one finding per channel, not per state


def test_g008_produced_static_channel():
    g = TaskGraph("static-writer")
    g.add_channel(ChannelSpec("config", static=True))
    g.add_task(Task("A", 1.0, outputs=["config"]))
    g.add_task(Task("B", 1.0, inputs=["config"]))
    assert "G008" in rules(lint_graph(g))


def test_g009_chunk_kernels_without_spec():
    g = TaskGraph("chunky")
    g.add_task(
        Task(
            "A",
            1.0,
            compute_chunk=lambda s, i, k, n: k,
            compute_join=lambda s, i, parts: {},
        )
    )
    assert "G009" in rules(lint_graph(g))


def test_g009_spec_and_serial_kernel_without_chunk_kernels():
    g = TaskGraph("fallback")
    g.add_task(
        Task(
            "A",
            1.0,
            data_parallel=DataParallelSpec([1, 2]),
            compute=lambda s, i, ts: {},
        )
    )
    assert "G009" in rules(lint_graph(g))


def test_the_live_tracker_has_no_g009():
    """Only T4 carries chunk kernels, and only T4 can run them."""
    from repro.apps.tracker.graph import (
        TRACKER_STATES,
        attach_kernels,
        build_tracker_graph,
    )
    from repro.apps.video import VideoSource

    live, _statics = attach_kernels(build_tracker_graph(), VideoSource(n_targets=2))
    assert "G009" not in rules(lint_graph(live, states=TRACKER_STATES))
    assert [t.name for t in live.tasks if t.compute_chunk is not None] == ["T4"]
    t4 = live.task("T4")
    assert t4.compute_join is not None and t4.data_parallel is not None


def test_g010_fewer_chunks_than_workers():
    spec = DataParallelSpec([1, 4], chunks_for=lambda state, w: 2)
    g = TaskGraph("narrow")
    g.add_task(Task("A", 1.0, data_parallel=spec))
    report = lint_graph(g, states=STATES)
    (f,) = [f for f in report if f.rule == "G010"]
    assert f.severity is Severity.WARNING


def test_g010_chunks_for_raises_is_error():
    def explode(state, w):
        raise RuntimeError("bad decomposition")

    g = TaskGraph("explosive")
    g.add_task(Task("A", 1.0, data_parallel=DataParallelSpec([1, 2], chunks_for=explode)))
    report = lint_graph(g, states=STATES)
    (f,) = [f for f in report if f.rule == "G010"]
    assert f.severity is Severity.ERROR


def test_g011_dominated_variant():
    # Overhead so large that dp2 never beats serial anywhere in the space.
    spec = DataParallelSpec([1, 2], per_chunk_overhead=100.0)
    g = TaskGraph("dominated")
    g.add_task(Task("A", 1.0, data_parallel=spec))
    report = lint_graph(g, states=STATES)
    (f,) = [f for f in report if f.rule == "G011"]
    assert f.severity is Severity.INFO


def test_g011_needs_states():
    spec = DataParallelSpec([1, 2], per_chunk_overhead=100.0)
    g = TaskGraph("dominated")
    g.add_task(Task("A", 1.0, data_parallel=spec))
    assert "G011" not in rules(lint_graph(g))  # no state space, no verdict


def test_lint_keeps_going_after_errors():
    """Several independent defects all surface in one report."""
    g = TaskGraph("mess")
    g.add_channel(ChannelSpec("unwritten"))
    g.add_channel(ChannelSpec("orphan"))
    g.add_task(Task("A", 1.0, inputs=["unwritten"], outputs=["ghost"]))
    found = rules(lint_graph(g))
    assert {"G002", "G003", "G005"} <= found
