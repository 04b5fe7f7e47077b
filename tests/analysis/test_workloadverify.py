"""Seeded true-positive fixtures for the W rules (workload verification).

Each W rule gets a deliberately broken input that must trigger it:

* W001 — a fusion instance whose source period sits below the capacity
  bound (min per-iteration work over total machine speed);
* W002 — a matmul instance whose deadline sits below the best-variant
  critical-path bound at the fastest node;
* W003 — a feasible instance re-armed with a deadline squeezed between
  the latency *bound* (so W002 stays quiet) and the *realized* exact
  latency (so the concrete table entry misses it).
"""

from __future__ import annotations

import dataclasses

from repro.core.optimal import OptimalScheduler
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement, ScheduleSolution
from repro.core.table import ScheduleTable
from repro.workloads import (
    capacity_bound,
    certify_instance,
    get_family,
    latency_bound,
    verify_workload_table,
)


def _build(instance):
    fam = get_family(instance.family)
    return (
        fam.build_graph(instance),
        fam.state_space(instance),
        fam.cluster(instance),
    )


def _serial_solution(graph, state) -> ScheduleSolution:
    """A legal but deliberately slow entry: every task on processor 0."""
    placements, t = [], 0.0
    for name in graph.topo_order():
        d = graph.task(name).cost(state)
        placements.append(Placement(name, (0,), t, d))
        t += d
    it = IterationSchedule(placements)
    pipelined = PipelinedSchedule(it, period=t, shift=0, n_procs=1)
    return ScheduleSolution(
        state=state, iteration=it, pipelined=pipelined, alternatives=1, explored=0
    )


class TestBounds:
    def test_capacity_bound_scales_with_regime(self):
        inst = get_family("webinfer").generate(0)
        graph, space, cluster = _build(inst)
        floors = [capacity_bound(graph, s, cluster) for s in space]
        assert all(f > 0 for f in floors)
        assert floors == sorted(floors)  # denser regime, more work

    def test_latency_bound_below_any_exact_latency(self):
        inst = get_family("fusion").generate(0)
        graph, space, cluster = _build(inst)
        scheduler = OptimalScheduler(cluster)
        for state in space:
            sol = scheduler.solve(graph, state)
            assert latency_bound(graph, state, cluster) <= sol.latency + 1e-9


class TestW001ThroughputInfeasible:
    def test_fires_on_starved_source_period(self):
        inst = get_family("fusion").generate(2, infeasible=True)
        report = certify_instance(inst)
        rules = {f.rule for f in report.findings}
        assert "W001" in rules
        assert not report.ok()

    def test_quiet_on_feasible_instance(self):
        report = certify_instance(get_family("fusion").generate(0))
        assert "W001" not in {f.rule for f in report.findings}
        assert report.ok()


class TestW002DeadlineUnachievable:
    def test_fires_on_impossible_deadline(self):
        inst = get_family("matmul").generate(2, infeasible=True)
        report = certify_instance(inst)
        rules = {f.rule for f in report.findings}
        assert "W002" in rules
        assert not report.ok()

    def test_location_names_instance_and_state(self):
        inst = get_family("matmul").generate(2, infeasible=True)
        report = certify_instance(inst)
        w002 = [f for f in report.findings if f.rule == "W002"]
        assert w002 and all(inst.name in f.location for f in w002)


class TestW003DeadlineViolated:
    def test_fires_on_missed_but_achievable_deadline(self):
        """A sluggish-but-legal serial entry misses a deadline the bound
        says is achievable: W003 must fire and W002 must stay quiet."""
        inst = get_family("webinfer").generate(0)
        graph, space, cluster = _build(inst)
        table = ScheduleTable.build(graph, space, OptimalScheduler(cluster))
        states = list(space)
        worst_state = max(states, key=lambda s: latency_bound(graph, s, cluster))
        max_bound = latency_bound(graph, worst_state, cluster)
        sluggish = _serial_solution(graph, worst_state)
        assert sluggish.latency > max_bound  # the diamond serializes
        solutions = {s: table.lookup(s) for s in states}
        solutions[worst_state] = sluggish
        squeezed = dataclasses.replace(
            inst, deadline=(max_bound + sluggish.latency) / 2
        )
        report = verify_workload_table(squeezed, ScheduleTable(solutions))
        rules = {f.rule for f in report.findings}
        assert "W003" in rules
        assert "W002" not in rules  # the deadline was achievable in principle
        assert not report.ok()

    def test_quiet_when_table_meets_deadline(self):
        inst = get_family("webinfer").generate(0)
        graph, space, cluster = _build(inst)
        table = ScheduleTable.build(graph, space, OptimalScheduler(cluster))
        report = verify_workload_table(inst, table)
        assert "W003" not in {f.rule for f in report.findings}
        assert report.ok(), report.summary()


class TestComposition:
    def test_verify_workload_table_includes_s_rules(self):
        """The composed pass runs the S verifier too — a table covering
        only one state yields S010 coverage gaps, not a silent pass."""
        inst = get_family("fusion").generate(0)
        graph, space, cluster = _build(inst)
        states = list(space)
        assert len(states) > 1
        first = states[0]
        partial = ScheduleTable({first: OptimalScheduler(cluster).solve(graph, first)})
        report = verify_workload_table(inst, partial)
        assert "S010" in {f.rule for f in report.findings}

    def test_expected_findings_match_dataset_contract(self):
        """Every family's infeasible generator records exactly the rules
        the verifier reproduces."""
        for family in ("matmul", "fusion", "webinfer"):
            inst = get_family(family).generate(2, infeasible=True)
            got = {f.rule for f in certify_instance(inst).findings}
            assert set(inst.expected_findings) <= got, family
