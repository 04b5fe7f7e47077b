"""One STM verdict: what the gates decide about a channel configuration.

Seeded mutations of a small two-task graph, each checked for the verdict a
``verify=`` gate reaches — a real wedge, an under-provisioned channel, a
truncated exploration over a schedule that overruns capacity, and a wait
cycle the model proves safe.  They hold for whichever pass writes the
finding, so they pin behaviour across a reorganisation of passes 3 and 5.
"""

from __future__ import annotations

import functools

import pytest

import repro.analysis as analysis
from repro.analysis import AnalysisReport, ChannelDecl, Severity, check_model, check_stm
from repro.core.optimal import OptimalScheduler
from repro.core.table import ScheduleTable
from repro.errors import AnalysisError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State, StateSpace


def by_rule(report, rid):
    return [f for f in report.findings if f.rule == rid]


def _waits(capacity=1):
    """``A -> c1 (bounded), c2 -> B``: B waits on A through two channels."""
    g = TaskGraph("waits")
    g.add_channel(ChannelSpec("c1", capacity=capacity))
    g.add_channel(ChannelSpec("c2"))
    g.add_task(Task("A", 1.0, outputs=["c1", "c2"]))
    g.add_task(Task("B", 1.0, inputs=["c1", "c2"]))
    return g


def _pair():
    """``A -> ab (capacity 1) -> B``: its schedule keeps two items in flight."""
    g = TaskGraph("pair")
    g.add_channel(ChannelSpec("ab", capacity=1))
    g.add_task(Task("A", 1.0, outputs=["ab"]))
    g.add_task(Task("B", 1.0, inputs=["ab"]))
    return g


#: B holds two items of c1 before consuming the oldest.
WINDOW2 = (ChannelDecl("B", "c1", window=2),)

#: What the capacity estimate says of ``_pair``'s schedule.
OVERRUN = "schedule keeps 2 items of 'ab' in flight (II=1s) but capacity is 1"


def _stm_report(graph, **kwargs):
    report = check_stm(graph)
    return check_model(graph, report=report, **kwargs)


def test_a_wait_cycle_that_wedges_is_an_m001_error():
    report = _stm_report(_waits(), decls=WINDOW2)
    (m1,) = by_rule(report, "M001")
    assert m1.severity is Severity.ERROR
    assert m1.location == "graph:waits/tasks:A+B"
    assert "counterexample" in m1.message
    assert not report.ok()


def test_a_capacity_one_below_the_certificate_is_an_m003_error():
    (cert,) = by_rule(_stm_report(_waits(2), decls=WINDOW2), "M003")
    assert cert.severity is Severity.INFO
    assert "certified: minimal safe capacity is 2" in cert.message
    report = _stm_report(_waits(1), decls=WINDOW2)
    (m3,) = by_rule(report, "M003")
    assert m3.severity is Severity.ERROR
    assert "below the minimal safe capacity 2" in m3.message
    assert not report.ok()


def test_the_proved_safe_wait_cycle_passes_strict_with_a_certificate():
    report = _stm_report(_waits())
    assert report.ok(strict=True), report.summary()
    (m3,) = by_rule(report, "M003")
    assert m3.severity is Severity.INFO
    assert "certified: minimal safe capacity is 1" in m3.message


@pytest.fixture
def truncated(monkeypatch):
    """Every gate's model check stops after three states."""
    monkeypatch.setattr(
        analysis, "check_model", functools.partial(check_model, budget=3)
    )


def _gate_report(gate):
    with pytest.raises(AnalysisError) as exc:
        gate()
    return exc.value.report


def _table_gate():
    ScheduleTable.build(
        _pair(),
        StateSpace.range("n_models", 1, 2),
        OptimalScheduler(SINGLE_NODE_SMP(2)),
        verify=True,
    )


def _executor_gate():
    """Passes 1-3 and 5 run directly over one executor's inputs."""
    graph, state, smp2 = _pair(), State(n_models=1), SINGLE_NODE_SMP(2)
    sol = OptimalScheduler(smp2).solve(graph, state)
    report = analysis.lint_graph(graph, states=[state])
    analysis.verify_solution(sol, graph, smp2, report=report)
    analysis.check_stm(graph, report=report)
    analysis.check_model(graph, sol, report=report)
    if not report.ok():
        raise AnalysisError(report)


@pytest.mark.parametrize(
    "gate", [_table_gate, _executor_gate], ids=["table", "executor"]
)
def test_a_truncated_exploration_keeps_the_capacity_estimate_gating(truncated, gate):
    report = _gate_report(gate)
    assert isinstance(report, AnalysisReport)
    p2 = by_rule(report, "P002")
    assert p2 and all(f.severity is Severity.ERROR for f in p2)
    assert {f.message for f in p2} == {OVERRUN}
    assert {f.location for f in p2} == {"graph:pair/channel:ab"}
    (m4,) = by_rule(report, "M004")
    assert m4.severity is Severity.WARNING
    assert not report.ok()


@pytest.mark.parametrize(
    "gate", [_table_gate, _executor_gate], ids=["table", "executor"]
)
def test_a_completed_exploration_lets_the_overrun_schedule_through(gate):
    gate()  # the model certifies capacity 1: back-pressure slip, no wedge
    sol = OptimalScheduler(SINGLE_NODE_SMP(2)).solve(_pair(), State(n_models=1))
    report = check_model(_pair(), sol)
    (m3,) = by_rule(report, "M003")
    assert m3.severity is Severity.INFO
    assert "keeps up to 2 in flight" in m3.message
    assert report.ok(strict=True)
