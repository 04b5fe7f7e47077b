"""The solver rungs: gap guarantees, ε=0 identity, blown budgets, caching."""

from __future__ import annotations

import pytest

from repro.analysis import verify_solution
from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.approx import resolve_policy
from repro.core.cache import ScheduleCache, request_digest
from repro.core.optimal import OptimalScheduler
from repro.core.parallel import incumbent_of, solve_many
from repro.core.serialize import solution_to_dict, table_to_json
from repro.core.table import ScheduleTable
from repro.errors import ScheduleError
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State

EPSILONS = (0.0, 0.1, 0.5)


def solve(graph, state, scheduler, spec=None, cache=None):
    """One request on rung ``spec``, in-process, through ``cache``."""
    request = scheduler.request(graph, state, **resolve_policy(spec))
    return solve_many([request], cache=cache)[0]


@pytest.fixture(scope="module")
def tracker():
    return build_tracker_graph()


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(nodes=2, procs_per_node=2)


@pytest.fixture(scope="module")
def scheduler(cluster):
    return OptimalScheduler(cluster)


@pytest.fixture(scope="module")
def exact_by_state(tracker, scheduler):
    return {
        state: solve(tracker, state, scheduler)
        for state in TRACKER_STATES
    }


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_bounded_rung_honors_epsilon_on_tracker_space(
    tracker, scheduler, cluster, exact_by_state, epsilon
):
    """Acceptance: rung 2 never serves a gap above ε, verified by S013."""
    for state in TRACKER_STATES:
        sol = solve(tracker, state, scheduler, f"bounded:{epsilon}")
        exact = exact_by_state[state]
        assert sol.latency <= exact.latency * (1.0 + epsilon) + 1e-9
        cert = sol.certificate
        assert cert is not None
        assert cert.gap_bound <= epsilon + 1e-9
        # The certificate's lower bound really is one: L* is above it.
        assert cert.lower_bound <= exact.latency + 1e-9
        report = verify_solution(sol, tracker, cluster)
        assert not report.findings, f"eps={epsilon} {state}: {report.summary()}"


def test_epsilon_zero_is_bitwise_identical_to_exact(
    tracker, scheduler, exact_by_state
):
    """Acceptance: ε=0 degenerates to the exact search bit for bit."""
    for state in TRACKER_STATES:
        req_exact = scheduler.request(tracker, state, **resolve_policy("exact"))
        req_zero = scheduler.request(tracker, state, **resolve_policy("bounded:0"))
        assert req_exact == req_zero
        assert request_digest(req_exact) == request_digest(req_zero)
        sol = solve(tracker, state, scheduler, "bounded:0")
        assert solution_to_dict(sol) == solution_to_dict(exact_by_state[state])


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_bounded_tables_honor_epsilon_on_two_nodes_of_four(tracker, epsilon):
    """Whole tables on 2x4: every entry within ε of the exact table's, as
    realized and as certified; at ε=0 the table text is the exact one."""
    scheduler = OptimalScheduler(ClusterSpec(nodes=2, procs_per_node=4))
    exact = ScheduleTable.build(tracker, TRACKER_STATES, scheduler)
    table = ScheduleTable.build(
        tracker, TRACKER_STATES, scheduler, policy=f"bounded:{epsilon}"
    )
    for state in TRACKER_STATES:
        sol = table.lookup(state)
        assert sol.latency <= exact.lookup(state).latency * (1.0 + epsilon) + 1e-9
        assert sol.certificate.gap_bound <= epsilon + 1e-9
    if epsilon == 0.0:
        assert table_to_json(table) == table_to_json(exact)


@pytest.mark.parametrize("n_tasks", (6, 8))
def test_rungs_certify_their_gap_on_random_dags(n_tasks):
    """bounded:0.5 and list on a random DAG: the realized gap to the exact
    optimum is within the certified one, bounded's within ε, S013-clean."""
    graph = random_dag(n_tasks, seed=1, dp_prob=0.3)
    cluster = ClusterSpec(nodes=2, procs_per_node=4)
    scheduler = OptimalScheduler(cluster)
    state = State(n_models=4)
    exact = solve(graph, state, scheduler)
    for spec in ("bounded:0.5", "list"):
        sol = solve(graph, state, scheduler, spec)
        realized = sol.latency / exact.latency - 1
        assert realized <= sol.certificate.gap_bound + 1e-9
        if spec == "bounded:0.5":
            assert sol.certificate.gap_bound <= 0.5 + 1e-9
        report = verify_solution(sol, graph, cluster)
        assert report.ok(strict=True), report.summary()


def test_exact_certificate_claims_zero_gap(exact_by_state):
    for sol in exact_by_state.values():
        cert = sol.certificate
        assert cert is not None and cert.policy == "exact"
        assert cert.epsilon == 0.0 and cert.gap_bound == 0.0
        assert cert.lower_bound == sol.latency


def test_list_rung_serves_heft_with_certified_gap(tracker, scheduler, cluster):
    for state in (State(n_models=1), State(n_models=4), State(n_models=8)):
        sol = solve(tracker, state, scheduler, "list")
        cert = sol.certificate
        assert cert is not None and cert.policy == "list"
        assert cert.lower_bound == cert.root_bound > 0.0
        assert sol.latency >= cert.lower_bound - 1e-9
        report = verify_solution(sol, tracker, cluster)
        assert not report.findings, report.summary()


def test_bounded_never_beats_exact_latency(tracker, scheduler, exact_by_state):
    """Soundness sanity: no rung can serve below L*."""
    for epsilon in EPSILONS:
        for state in TRACKER_STATES:
            sol = solve(tracker, state, scheduler, f"bounded:{epsilon}")
            assert sol.latency >= exact_by_state[state].latency - 1e-9


def test_bounded_blown_budget_serves_list_fallback():
    """A bounded search that blows its node budget serves the HEFT
    schedule, certified as ``list``, and the verifier passes it."""
    graph = random_dag(n_tasks=8, seed=8, dp_prob=0.3)
    cluster = SINGLE_NODE_SMP(4)
    scheduler = OptimalScheduler(cluster, node_limit=1)
    request = scheduler.request(graph, State(n_models=4), **resolve_policy("bounded:0.01"))
    sol = solve_many([request])[0]
    cert = sol.certificate
    assert cert is not None and cert.policy == "list"
    _, heft = incumbent_of(request)
    assert sol.iteration.canonical_key() == heft.canonical_key()
    report = verify_solution(sol, graph, cluster)
    assert not report.findings, report.summary()


def test_resolve_policy_specs():
    assert resolve_policy(None) == resolve_policy("exact") == {}
    assert resolve_policy("list") == {"mode": "list"}
    assert resolve_policy("bounded:0.25") == {"bound_inflation": 0.25}
    assert resolve_policy("bounded") == {"bound_inflation": 0.1}
    for bad in ("oracle", "bounded:abc", "bounded:", "exact:", "exact:1",
                "list:1", "ladder", "ladder:0.3", 42):
        with pytest.raises(ScheduleError, match=r"exact \| bounded\[:eps\] \| list"):
            resolve_policy(bad)
    with pytest.raises(ScheduleError, match="^bound_inflation must be >= 0"):
        OptimalScheduler(SINGLE_NODE_SMP(2)).request(
            random_dag(n_tasks=3, seed=1), State(n_models=1),
            **resolve_policy("bounded:-0.1"),
        )


def test_policies_cache_and_digests_separate(tracker, scheduler, tmp_path):
    cache = ScheduleCache(tmp_path / "sched")
    state = State(n_models=2)
    digests = {
        request_digest(scheduler.request(tracker, state, **resolve_policy(spec)))
        for spec in ("exact", "bounded:0.5", "list")
    }
    assert len(digests) == 3  # each rung answers a different question

    first = solve(tracker, state, scheduler, "bounded:0.5", cache=cache)
    again = solve(tracker, state, scheduler, "bounded:0.5", cache=cache)
    assert cache.stats.hits == 1
    assert solution_to_dict(first) == solution_to_dict(again)
    assert again.certificate is not None and again.certificate.policy in (
        "exact",
        "bounded",
    )


def test_certificate_serialization_roundtrip(tracker, scheduler, tmp_path):
    """list-rung certificates survive the cache's JSON round trip."""
    cache = ScheduleCache(tmp_path / "sched")
    state = State(n_models=3)
    sol = solve(tracker, state, scheduler, "list", cache=cache)
    hit = solve(tracker, state, scheduler, "list", cache=cache)
    assert cache.stats.hits == 1
    assert hit.certificate == sol.certificate
    assert hit.certificate.policy == "list"


def test_solve_many_cached_batch(tracker, scheduler, exact_by_state, tmp_path):
    cache = ScheduleCache(tmp_path / "sched")
    states = list(TRACKER_STATES)[:4]
    rung = resolve_policy("bounded:0.0")
    requests = [scheduler.request(tracker, state, **rung) for state in states]
    sols = solve_many(requests, cache=cache)
    assert [s.latency for s in sols] == [
        exact_by_state[st].latency for st in states
    ]
    again = solve_many(requests, cache=cache)
    assert cache.stats.hits == len(states)
    assert [solution_to_dict(s) for s in again] == [
        solution_to_dict(s) for s in sols
    ]
