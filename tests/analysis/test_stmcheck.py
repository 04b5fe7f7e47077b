"""Pass 3 (STM channel wiring): leaks and born-consumed hazards — and
``P002``, the capacity estimate pass 5 gates on where it proves nothing."""

from __future__ import annotations

from repro.analysis import Severity, check_model, check_stm
from repro.core.optimal import OptimalScheduler
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


def rules(report):
    return {f.rule for f in report.findings}


def _bounded_chain(capacity):
    g = TaskGraph("pipe")
    g.add_channel(ChannelSpec("ab", capacity=capacity))
    g.add_task(Task("A", 1.0, outputs=["ab"]))
    g.add_task(Task("B", 1.0, inputs=["ab"]))
    return g


def _solve(g):
    return OptimalScheduler(SINGLE_NODE_SMP(2)).solve(g, State(n_models=1))


def test_p002_capacity_insufficient_for_schedule():
    g = _bounded_chain(capacity=1)
    # A ends at 1s, B drains at 2s, II=1s: two items in flight, capacity 1;
    # three states are too few for the model to prove anything.
    report = check_model(g, _solve(g), budget=3)
    (f,) = [f for f in report if f.rule == "P002"]
    assert f.severity is Severity.ERROR
    assert f.message == (
        "schedule keeps 2 items of 'ab' in flight (II=1s) but capacity is 1"
    )
    assert "M004" in rules(report)


def test_p002_sufficient_capacity_is_clean():
    g = _bounded_chain(capacity=2)
    assert "P002" not in rules(check_model(g, _solve(g), budget=3))


def test_p002_needs_a_schedule():
    assert "P002" not in rules(check_stm(_bounded_chain(capacity=1)))
    assert "P002" not in rules(check_model(_bounded_chain(capacity=1), budget=3))


def test_p002_where_no_model_can_be_built():
    g = _bounded_chain(capacity=1)
    sol = _solve(g)
    # A consumer with no producer: a pass-1 defect no model is built from.
    g.add_channel(ChannelSpec("orphan"))
    g.add_task(Task("C", 1.0, inputs=["orphan"]))
    assert rules(check_model(g, sol)) == {"P002"}


def test_p003_consume_leak():
    g = TaskGraph("leak")
    g.add_channel(ChannelSpec("used"))
    g.add_channel(ChannelSpec("tap"))
    g.add_task(Task("A", 1.0, outputs=["used", "tap"]))
    g.add_task(Task("B", 1.0, inputs=["used"]))
    (f,) = [f for f in check_stm(g) if f.rule == "P003"]
    assert "tap" in f.location


def test_p003_terminal_outputs_are_exempt():
    # A sink's sole output is the application's result stream; every
    # runtime drains it with an implicit collector.
    g = TaskGraph("sink")
    g.add_channel(ChannelSpec("mid"))
    g.add_channel(ChannelSpec("result"))
    g.add_task(Task("A", 1.0, outputs=["mid"]))
    g.add_task(Task("B", 1.0, inputs=["mid"], outputs=["result"]))
    assert "P003" not in rules(check_stm(g))


def test_p004_concurrent_consumers():
    g = TaskGraph("fanout")
    g.add_channel(ChannelSpec("src"))
    g.add_task(Task("S", 1.0, outputs=["src"]))
    g.add_task(Task("B", 1.0, inputs=["src"]))
    g.add_task(Task("C", 1.0, inputs=["src"]))
    findings = [f for f in check_stm(g) if f.rule == "P004"]
    assert len(findings) == 1  # one per channel, even with more consumers
    assert findings[0].severity is Severity.INFO


def test_p004_ordered_consumers_are_clean():
    # C consumes src but is a descendant of B, so their gets are ordered.
    g = TaskGraph("ordered")
    g.add_channel(ChannelSpec("src"))
    g.add_channel(ChannelSpec("mid"))
    g.add_task(Task("S", 1.0, outputs=["src"]))
    g.add_task(Task("B", 1.0, inputs=["src"], outputs=["mid"]))
    g.add_task(Task("C", 1.0, inputs=["src", "mid"]))
    assert "P004" not in rules(check_stm(g))


def test_cyclic_graph_does_not_crash_stm_pass():
    g = TaskGraph("cycle")
    g.add_channel(ChannelSpec("ab"))
    g.add_channel(ChannelSpec("ba"))
    g.add_task(Task("A", 1.0, inputs=["ba"], outputs=["ab"]))
    g.add_task(Task("B", 1.0, inputs=["ab"], outputs=["ba"]))
    check_stm(g)  # cycles are pass-1 findings; pass 3 must not raise


def _table_report(monkeypatch, graph, space, cluster):
    """The report a verified table build hands to ``check_stm``."""
    import repro.analysis as analysis
    from repro.core.table import ScheduleTable
    from repro.errors import AnalysisError

    seen = []
    check = analysis.check_stm

    def spy(graph, report=None):
        seen.append(report)
        return check(graph, report=report)

    monkeypatch.setattr(analysis, "check_stm", spy)
    try:
        ScheduleTable.build(graph, space, OptimalScheduler(cluster), verify=True)
    except AnalysisError:
        pass
    assert len(seen) == 1
    return seen[0]


def test_table_verify_reports_wiring_findings_once(monkeypatch):
    from repro.state import StateSpace

    g = TaskGraph("leaky-pipe")
    g.add_channel(ChannelSpec("used", capacity=1))
    g.add_channel(ChannelSpec("tap"))
    g.add_task(Task("A", 1.0, outputs=["used", "tap"]))
    g.add_task(Task("B", 1.0, inputs=["used"]))
    space = StateSpace.range("n_models", 1, 3)
    report = _table_report(monkeypatch, g, space, SINGLE_NODE_SMP(2))
    # P003 reads the wiring; every entry keeps two items of ``used`` in
    # flight, which the model check certifies rather than flags.
    assert [f.rule for f in report if f.rule.startswith(("P", "M"))] == [
        "P003", "M003",
    ]


def test_tracker_table_reports_its_concurrent_consumers_once(monkeypatch):
    from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
    from repro.sim.cluster import ClusterSpec

    report = _table_report(
        monkeypatch, build_tracker_graph(), TRACKER_STATES, ClusterSpec(2, 4)
    )
    p004 = [f for f in report if f.rule == "P004"]
    assert [f.location for f in p004] == ["graph:color-tracker/channel:frame"]


def test_a_shared_report_still_gets_p002_for_every_solution():
    g = _bounded_chain(capacity=1)
    sol = _solve(g)
    report = check_model(g, sol, solutions=[sol], budget=3)
    assert [f.rule for f in report] == ["P002", "P002", "M004"]


def test_a_graph_edited_between_two_calls_on_one_report_is_analyzed_afresh():
    g = TaskGraph("growing")
    g.add_channel(ChannelSpec("src"))
    g.add_task(Task("S", 1.0, outputs=["src"]))
    g.add_task(Task("B", 1.0, inputs=["src"]))
    report = check_stm(g)
    assert [f.rule for f in report] == []
    g.add_task(Task("C", 1.0, inputs=["src"]))  # now two concurrent consumers
    check_stm(g, report=report)
    assert [f.rule for f in report] == ["P004"]
    g.add_channel(ChannelSpec("tap"))
    g.remove_task("S")
    g.add_task(Task("S", 1.0, outputs=["src", "tap"]))  # and a leak
    check_stm(g, report=report)
    assert sorted(f.rule for f in report) == ["P003", "P004", "P004"]
