"""Pass 2 (schedule verification): seeded defect per S rule + property test."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import verify_schedule_table, verify_shape_table, verify_solution
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import IterationSchedule, PipelinedSchedule, ScheduleSolution
from repro.core.table import ScheduleTable
from repro.faults.failover import ShapeTable
from repro.graph.builders import chain_graph, random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace


def rules(report):
    return {f.rule for f in report.findings}


@pytest.fixture(scope="module")
def chain():
    return chain_graph([1.0, 1.0])


@pytest.fixture(scope="module")
def smp2():
    return SINGLE_NODE_SMP(2)


@pytest.fixture(scope="module")
def solution(chain, smp2):
    return OptimalScheduler(smp2).solve(chain, State(n_models=1))


def mutate(sol: ScheduleSolution, placements=None, pipelined=None) -> ScheduleSolution:
    """A copy of ``sol`` with a corrupted iteration and/or pipelining."""
    iteration = (
        IterationSchedule(placements, name=sol.iteration.name)
        if placements is not None
        else sol.iteration
    )
    return ScheduleSolution(
        state=sol.state,
        iteration=iteration,
        pipelined=pipelined if pipelined is not None else sol.pipelined,
        alternatives=sol.alternatives,
        explored=sol.explored,
    )


def test_genuine_solution_verifies_clean(solution, chain, smp2):
    report = verify_solution(solution, chain, smp2)
    assert not report.findings, report.summary()


def test_s001_missing_and_unknown_tasks(solution, chain, smp2):
    ps = list(solution.iteration.placements)
    bad = mutate(solution, placements=ps[:-1] + [replace(ps[-1], task="ZZ")])
    report = verify_solution(bad, chain, smp2)
    findings = [f for f in report if f.rule == "S001"]
    assert any("never placed" in f.message for f in findings)
    assert any("unknown to the graph" in f.message for f in findings)


def test_s002_processor_out_of_range(solution, chain, smp2):
    ps = list(solution.iteration.placements)
    bad = mutate(solution, placements=[replace(ps[0], procs=(99,))] + ps[1:])
    assert "S002" in rules(verify_solution(bad, chain, smp2))


def test_s003_overlap_on_one_processor(solution, chain, smp2):
    ps = [replace(p, procs=(0,), start=0.0) for p in solution.iteration.placements]
    assert "S003" in rules(verify_solution(mutate(solution, placements=ps), chain, smp2))


def test_s004_placement_spans_nodes(chain):
    cluster = ClusterSpec(nodes=2, procs_per_node=1)
    sol = OptimalScheduler(cluster).solve(chain, State(n_models=1))
    ps = list(sol.iteration.placements)
    bad = mutate(sol, placements=[replace(ps[0], procs=(0, 1))] + ps[1:])
    assert "S004" in rules(verify_solution(bad, chain, cluster))


def test_s005_successor_starts_before_predecessor_ends(solution, chain, smp2):
    ps = sorted(solution.iteration.placements, key=lambda p: p.start)
    bad = mutate(solution, placements=ps[:-1] + [replace(ps[-1], start=0.0, procs=(1,))])
    assert "S005" in rules(verify_solution(bad, chain, smp2))


def test_s006_s007_duration_disagrees_with_cost_model(solution, chain, smp2):
    ps = sorted(solution.iteration.placements, key=lambda p: p.start)
    bad = mutate(solution, placements=ps[:-1] + [replace(ps[-1], duration=2.0)])
    found = rules(verify_solution(bad, chain, smp2))
    assert "S006" in found  # duration off
    assert "S007" in found  # so the claimed latency L is off too


def test_s006_unknown_variant(solution, chain, smp2):
    ps = list(solution.iteration.placements)
    bad = mutate(solution, placements=[replace(ps[0], variant="dp99")] + ps[1:])
    report = verify_solution(bad, chain, smp2)
    assert any(
        f.rule == "S006" and "does not produce" in f.message for f in report
    )


def test_s008_latency_below_critical_path_bound(solution, chain):
    # Verify against a half-speed cluster: the claimed L=2s is impossible
    # there (the bound doubles), so the certificate must fail.
    slow = ClusterSpec(procs_by_node=[2], node_speeds=[0.5])
    assert "S008" in rules(verify_solution(solution, chain, slow))


def test_s009_initiation_interval_below_capacity(solution, chain, smp2):
    piped = solution.pipelined
    rushed = PipelinedSchedule(
        solution.iteration, period=piped.period / 4, shift=piped.shift,
        n_procs=piped.n_procs,
    )
    assert "S009" in rules(verify_solution(mutate(solution, pipelined=rushed), chain, smp2))


def test_s010_table_gap(chain, smp2):
    table = ScheduleTable.build(
        chain, StateSpace.range("n_models", 1, 2), OptimalScheduler(smp2)
    )
    report = verify_schedule_table(
        table, chain, StateSpace.range("n_models", 1, 3), smp2
    )
    gaps = [f for f in report if f.rule == "S010"]
    assert len(gaps) == 1 and "n_models=3" in gaps[0].location


def test_s011_unresolvable_transition(chain, smp2):
    class BrokenPolicy:
        def effect(self, old, new):
            raise RuntimeError("no transition plan")

    space = StateSpace.range("n_models", 1, 3)
    table = ScheduleTable.build(chain, space, OptimalScheduler(smp2))
    report = verify_schedule_table(
        table, chain, space, smp2, policy=BrokenPolicy()
    )
    # Three states -> six ordered pairs, each reported.
    assert len([f for f in report if f.rule == "S011"]) == 6


def test_s012_missing_failover_entry(chain):
    base = ClusterSpec(nodes=2, procs_per_node=1)
    sol = OptimalScheduler(base).solve(chain, State(n_models=1))
    table = ShapeTable({base.shape_key(): sol})  # no degraded entries
    report = verify_shape_table(table, chain, base)
    assert "S012" in rules(report)
    assert all(f.rule == "S012" for f in report), report.summary()


def test_s013_genuine_exact_certificate_verifies_clean(solution, chain, smp2):
    cert = solution.certificate
    assert cert is not None and cert.policy == "exact"
    assert not verify_solution(solution, chain, smp2).findings


def test_s013_genuine_bounded_and_list_certificates_verify_clean(chain, smp2):
    from repro.approx import resolve_policy
    from repro.core.parallel import execute_request

    scheduler = OptimalScheduler(smp2)
    for spec in ("bounded:0.5", "list"):
        request = scheduler.request(chain, State(n_models=1), **resolve_policy(spec))
        sol = execute_request(request)
        assert sol.certificate is not None
        report = verify_solution(sol, chain, smp2)
        assert not report.findings, f"{spec}: {report.summary()}"


def test_s013_width_capped_scheduler_certifies_its_own_cap(tracker_graph, m8, smp4):
    """``dp_cap`` is the request's (the parent stamped the cluster's 4 on a search capped at 1)."""
    sol = OptimalScheduler(smp4, max_workers=1).solve(tracker_graph, m8)
    assert sol.certificate.dp_cap == 1
    report = verify_solution(sol, tracker_graph, smp4)
    assert "S013" not in rules(report), report.summary()


def test_s013_forged_lower_bound_above_latency(solution, chain, smp2):
    cert = replace(
        solution.certificate, lower_bound=solution.latency * 2, gap_bound=0.0
    )
    bad = replace(solution, certificate=cert)
    assert "S013" in rules(verify_solution(bad, chain, smp2))


def test_s013_forged_root_bound(solution, chain, smp2):
    cert = replace(solution.certificate, root_bound=solution.latency * 10)
    bad = replace(solution, certificate=cert)
    report = verify_solution(bad, chain, smp2)
    assert any(
        f.rule == "S013" and "re-derived bound" in f.message for f in report
    )


def test_s013_understated_gap(solution, chain, smp2):
    # Claims a gap of zero while the stated lower bound implies 100%.
    cert = replace(
        solution.certificate,
        policy="bounded",
        epsilon=2.0,
        lower_bound=solution.latency / 2,
        gap_bound=0.0,
    )
    bad = replace(solution, certificate=cert)
    report = verify_solution(bad, chain, smp2)
    assert any(f.rule == "S013" and "understates" in f.message for f in report)


def test_s013_bounded_rung_breaks_its_epsilon_promise(solution, chain, smp2):
    cert = replace(
        solution.certificate,
        policy="bounded",
        epsilon=0.1,
        lower_bound=solution.latency / 1.5,
        gap_bound=0.5,
    )
    bad = replace(solution, certificate=cert)
    report = verify_solution(bad, chain, smp2)
    assert any(f.rule == "S013" and "promised" in f.message for f in report)


def test_s013_unknown_policy(solution, chain, smp2):
    cert = replace(solution.certificate, policy="oracle")
    bad = replace(solution, certificate=cert)
    assert "S013" in rules(verify_solution(bad, chain, smp2))


def test_s013_certificate_free_solutions_are_exempt(solution, chain, smp2):
    legacy = replace(solution, certificate=None)
    assert not verify_solution(legacy, chain, smp2).findings


def test_full_tables_verify_clean(chain, smp2):
    space = StateSpace.range("n_models", 1, 3)
    table = ScheduleTable.build(chain, space, OptimalScheduler(smp2))
    assert not verify_schedule_table(table, chain, space, smp2).findings

    base = ClusterSpec(nodes=2, procs_per_node=2)
    shapes = ShapeTable.build(chain, State(n_models=1), base)
    assert not verify_shape_table(shapes, chain, base).findings


def test_shape_table_snapshots_each_state_and_cap_once(chain, monkeypatch):
    """One cost snapshot per ``(state, cap)`` for the whole shape table,
    not one per entry."""
    from repro.core.enumerate import SearchProblem

    base = ClusterSpec(nodes=2, procs_per_node=2)
    shapes = ShapeTable.build(chain, State(n_models=1), base)
    built = []
    from_graph = SearchProblem.from_graph

    def counting(graph, state, **kwargs):
        built.append((state, kwargs["max_workers"]))
        return from_graph(graph, state, **kwargs)

    monkeypatch.setattr(SearchProblem, "from_graph", counting)
    assert not verify_shape_table(shapes, chain, base).findings
    assert built and len(set(built)) == len(built) < len(shapes)


@pytest.mark.parametrize("seed", range(6))
def test_property_random_dag_solutions_verify(seed):
    """Schedules from the real optimizer always pass the verifier."""
    graph = random_dag(n_tasks=5, seed=seed, dp_prob=0.3)
    cluster = SINGLE_NODE_SMP(3)
    sol = OptimalScheduler(cluster).solve(graph, State(n_models=2))
    report = verify_solution(sol, graph, cluster)
    assert not report.findings, f"seed {seed}: {report.summary()}"
