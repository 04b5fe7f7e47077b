"""The opt-in ``verify=`` gates on tables, and the analyzer over executor inputs."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import (
    RaceChecker, check_model, check_stm, lint_graph, verify_solution,
)
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import IterationSchedule, ScheduleSolution
from repro.core.table import ScheduleTable
from repro.errors import AnalysisError
from repro.faults.failover import ShapeTable
from repro.graph.builders import chain_graph
from repro.runtime.static_exec import StaticExecutor
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace


@pytest.fixture(scope="module")
def chain():
    return chain_graph([1.0, 1.0])


@pytest.fixture(scope="module")
def smp2():
    return SINGLE_NODE_SMP(2)


def corrupt(sol: ScheduleSolution) -> ScheduleSolution:
    """Inflate the final placement so the latency certificate fails."""
    ps = sorted(sol.iteration.placements, key=lambda p: p.start)
    bad = ps[:-1] + [replace(ps[-1], duration=ps[-1].duration * 2)]
    return ScheduleSolution(
        state=sol.state,
        iteration=IterationSchedule(bad, name=sol.iteration.name),
        pipelined=sol.pipelined,
        alternatives=sol.alternatives,
        explored=sol.explored,
    )


class TestScheduleTableGate:
    def test_build_with_verify_passes_clean(self, chain, smp2):
        space = StateSpace.range("n_models", 1, 3)
        table = ScheduleTable.build(chain, space, OptimalScheduler(smp2), verify=True)
        assert len(table) == 3

    def test_verify_raises_on_planted_defect(self, chain, smp2):
        space = StateSpace.range("n_models", 1, 2)
        table = ScheduleTable.build(chain, space, OptimalScheduler(smp2))
        states = table.states()
        bad = ScheduleTable(
            {states[0]: corrupt(table.lookup(states[0])),
             states[1]: table.lookup(states[1])}
        )
        with pytest.raises(AnalysisError) as exc:
            bad.verify(chain, space, smp2)
        report = exc.value.report
        assert {"S006", "S007"} <= {f.rule for f in report.findings}
        assert "S006" in str(exc.value)


class TestShapeTableGate:
    def test_build_with_verify_passes_clean(self, chain):
        base = ClusterSpec(nodes=2, procs_per_node=2)
        table = ShapeTable.build(chain, State(n_models=1), base, verify=True)
        assert len(table) >= 2

    def test_verify_raises_on_missing_shape(self, chain):
        base = ClusterSpec(nodes=2, procs_per_node=1)
        sol = OptimalScheduler(base).solve(chain, State(n_models=1))
        table = ShapeTable({base.shape_key(): sol})
        with pytest.raises(AnalysisError) as exc:
            table.verify(chain, base)
        assert any(f.rule == "S012" for f in exc.value.report.findings)


def analyze(graph, state, cluster, solution):
    """Passes 1-3 and 5 over one executor's inputs, run directly."""
    report = lint_graph(graph, states=[state])
    verify_solution(solution, graph, cluster, report=report)
    check_stm(graph, report=report)
    check_model(graph, solution, report=report)
    return report


class TestExecutorGate:
    """An executor has no gate of its own: its inputs go through the analyzer."""

    def test_verify_passes_clean_solution(self, chain, smp2):
        sol = OptimalScheduler(smp2).solve(chain, State(n_models=1))
        report = analyze(chain, State(n_models=1), smp2, sol)
        assert report.ok(), report.summary()
        result = StaticExecutor(chain, State(n_models=1), smp2, sol).run(3)
        assert len(result.completion_times) == 3

    def test_verify_accepts_bare_pipelined_schedule(self, chain, smp2):
        sol = OptimalScheduler(smp2).solve(chain, State(n_models=1))
        ex = StaticExecutor(chain, State(n_models=1), smp2, sol.pipelined)
        report = analyze(chain, State(n_models=1), smp2, ex.solution)
        assert report.ok(), report.summary()

    def test_verify_rejects_corrupted_schedule(self, chain, smp2):
        sol = OptimalScheduler(smp2).solve(chain, State(n_models=1))
        report = analyze(chain, State(n_models=1), smp2, corrupt(sol))
        assert not report.ok()
        assert {"S006", "S007"} <= {f.rule for f in report.findings}

    def test_threaded_executor_threads_checker_through(self, smp2):
        graph = chain_graph([0.01, 0.01])
        sol = OptimalScheduler(smp2).solve(graph, State(n_models=1))
        assert analyze(graph, State(n_models=1), smp2, sol).ok()
        checker = RaceChecker()
        ThreadedRuntime(
            graph, State(n_models=1), schedule=sol.pipelined, analysis=checker
        ).run(4)
        report = checker.report()
        assert checker.race_count == 0 and not report.findings, report.summary()
