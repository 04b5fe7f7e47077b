"""Pass 3 (STM protocol): wait cycles, capacity, leaks, born-consumed."""

from __future__ import annotations

from repro.analysis import Severity, check_stm
from repro.core.optimal import OptimalScheduler
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


def rules(report):
    return {f.rule for f in report.findings}


def test_p001_multi_channel_wait_cycle():
    # A's put on bounded c1 back-pressures on B, while B's gets wait on A
    # through both channels: a two-channel cycle that can deadlock if A
    # fills c1 before producing c2.
    g = TaskGraph("waits")
    g.add_channel(ChannelSpec("c1", capacity=1))
    g.add_channel(ChannelSpec("c2"))
    g.add_task(Task("A", 1.0, outputs=["c1", "c2"]))
    g.add_task(Task("B", 1.0, inputs=["c1", "c2"]))
    report = check_stm(g)
    (f,) = [f for f in report if f.rule == "P001"]
    assert f.severity is Severity.WARNING
    assert "c1" in f.message and "c2" in f.message


def test_p001_single_channel_backpressure_is_flow_control():
    g = TaskGraph("flow")
    g.add_channel(ChannelSpec("c", capacity=1))
    g.add_task(Task("A", 1.0, outputs=["c"]))
    g.add_task(Task("B", 1.0, inputs=["c"]))
    assert "P001" not in rules(check_stm(g))


def _bounded_chain(capacity):
    g = TaskGraph("pipe")
    g.add_channel(ChannelSpec("ab", capacity=capacity))
    g.add_task(Task("A", 1.0, outputs=["ab"]))
    g.add_task(Task("B", 1.0, inputs=["ab"]))
    return g


def test_p002_capacity_insufficient_for_schedule():
    g = _bounded_chain(capacity=1)
    sol = OptimalScheduler(SINGLE_NODE_SMP(2)).solve(g, State(n_models=1))
    # A ends at 1s, B drains at 2s, II=1s: two items in flight, capacity 1.
    report = check_stm(g, sol)
    (f,) = [f for f in report if f.rule == "P002"]
    assert "capacity is 1" in f.message


def test_p002_sufficient_capacity_is_clean():
    g = _bounded_chain(capacity=2)
    sol = OptimalScheduler(SINGLE_NODE_SMP(2)).solve(g, State(n_models=1))
    assert "P002" not in rules(check_stm(g, sol))


def test_p002_needs_a_schedule():
    assert "P002" not in rules(check_stm(_bounded_chain(capacity=1)))


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
    """The report a verified table build hands to ``check_stm`` per entry."""
    import repro.analysis as analysis
    from repro.core.table import ScheduleTable
    from repro.errors import AnalysisError

    seen = []
    check = analysis.check_stm

    def spy(graph, solution=None, report=None):
        seen.append(report)
        return check(graph, solution, report=report)

    monkeypatch.setattr(analysis, "check_stm", spy)
    try:
        ScheduleTable.build(graph, space, OptimalScheduler(cluster), verify=True)
    except AnalysisError:
        pass
    assert len(seen) == len(space) and all(r is seen[0] for r in seen)
    return seen[0]


def test_table_verify_reports_wiring_findings_once_and_p002_per_entry(monkeypatch):
    from repro.state import StateSpace

    g = TaskGraph("leaky-pipe")
    g.add_channel(ChannelSpec("used", capacity=1))
    g.add_channel(ChannelSpec("tap"))
    g.add_task(Task("A", 1.0, outputs=["used", "tap"]))
    g.add_task(Task("B", 1.0, inputs=["used"]))
    space = StateSpace.range("n_models", 1, 3)
    report = _table_report(monkeypatch, g, space, SINGLE_NODE_SMP(2))
    found = [f.rule for f in report if f.rule.startswith("P")]
    # P003 reads the wiring; P002 reads each entry's schedule (two items in
    # flight against capacity 1, under every state's schedule).
    assert found.count("P003") == 1
    assert found.count("P002") == len(space)


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
    sol = OptimalScheduler(SINGLE_NODE_SMP(2)).solve(g, State(n_models=1))
    report = check_stm(g, sol)
    check_stm(g, sol, report=report)
    assert [f.rule for f in report] == ["P002", "P002"]
    # a different graph object is a different wiring verdict
    other = TaskGraph("fanout")
    other.add_channel(ChannelSpec("src"))
    other.add_task(Task("S", 1.0, outputs=["src"]))
    other.add_task(Task("B", 1.0, inputs=["src"]))
    other.add_task(Task("C", 1.0, inputs=["src"]))
    check_stm(other, report=report)
    check_stm(other, report=report)
    assert [f.rule for f in report] == ["P002", "P002", "P004"]


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


def test_a_merged_report_knows_which_wiring_findings_it_holds():
    from repro.analysis.findings import AnalysisReport

    g = TaskGraph("fanout")
    g.add_channel(ChannelSpec("src"))
    g.add_task(Task("S", 1.0, outputs=["src"]))
    g.add_task(Task("B", 1.0, inputs=["src"]))
    g.add_task(Task("C", 1.0, inputs=["src"]))
    merged = AnalysisReport().extend(check_stm(g))
    check_stm(g, report=merged)
    assert [f.rule for f in merged] == ["P004"]
