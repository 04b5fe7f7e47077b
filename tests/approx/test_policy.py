"""The solver ladder: gap guarantees, ε=0 identity, escalation, caching."""

from __future__ import annotations

import pytest

from repro.analysis import verify_solution
from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.approx import (
    BoundedPolicy,
    ExactPolicy,
    ListPolicy,
    PolicyLadder,
    resolve_policy,
)
from repro.core.cache import ScheduleCache, request_digest
from repro.core.optimal import OptimalScheduler
from repro.core.parallel import solve_many
from repro.core.serialize import solution_to_dict
from repro.errors import ScheduleError
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State

EPSILONS = (0.0, 0.1, 0.5)


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
        state: ExactPolicy().solve(tracker, state, scheduler)
        for state in TRACKER_STATES
    }


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_bounded_rung_honors_epsilon_on_tracker_space(
    tracker, scheduler, cluster, exact_by_state, epsilon
):
    """Acceptance: rung 2 never serves a gap above ε, verified by S013."""
    policy = BoundedPolicy(epsilon)
    for state in TRACKER_STATES:
        sol = policy.solve(tracker, state, scheduler)
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
    policy = BoundedPolicy(0.0)
    for state in TRACKER_STATES:
        req_exact = ExactPolicy().request(scheduler, tracker, state)
        req_zero = policy.request(scheduler, tracker, state)
        assert req_exact == req_zero
        assert request_digest(req_exact) == request_digest(req_zero)
        sol = policy.solve(tracker, state, scheduler)
        assert solution_to_dict(sol) == solution_to_dict(exact_by_state[state])


def test_exact_certificate_claims_zero_gap(exact_by_state):
    for sol in exact_by_state.values():
        cert = sol.certificate
        assert cert is not None and cert.policy == "exact"
        assert cert.epsilon == 0.0 and cert.gap_bound == 0.0
        assert cert.lower_bound == sol.latency


def test_list_rung_serves_heft_with_certified_gap(tracker, scheduler, cluster):
    policy = ListPolicy()
    for state in (State(n_models=1), State(n_models=4), State(n_models=8)):
        sol = policy.solve(tracker, state, scheduler)
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
            sol = BoundedPolicy(epsilon).solve(tracker, state, scheduler)
            assert sol.latency >= exact_by_state[state].latency - 1e-9


def test_ladder_escalates_exact_to_bounded():
    """A 1-node exact budget must escalate to the bounded stage."""
    graph = random_dag(n_tasks=6, seed=3, dp_prob=0.3)
    cluster = SINGLE_NODE_SMP(3)
    scheduler = OptimalScheduler(cluster)
    state = State(n_models=2)
    exact = ExactPolicy().solve(graph, state, scheduler)
    ladder = PolicyLadder(epsilon=0.5, exact_budget=1, bounded_budget=10_000_000)
    sol = ladder.solve(graph, state, scheduler)
    cert = sol.certificate
    assert cert is not None and cert.policy == "bounded"
    assert cert.epsilon == 0.5
    assert sol.latency <= exact.latency * 1.5 + 1e-9


def test_ladder_exhausted_serves_list_fallback():
    """Blowing every stage budget still serves a certified schedule."""
    graph = random_dag(n_tasks=7, seed=5, dp_prob=0.3)
    cluster = SINGLE_NODE_SMP(3)
    scheduler = OptimalScheduler(cluster)
    state = State(n_models=2)
    ladder = PolicyLadder(epsilon=0.0, exact_budget=1, bounded_budget=1)
    sol = ladder.solve(graph, state, scheduler)
    cert = sol.certificate
    assert cert is not None and cert.policy in ("bounded", "list")
    report = verify_solution(sol, graph, cluster)
    assert not report.findings, report.summary()


def test_ladder_with_room_matches_exact(tracker, scheduler, exact_by_state):
    """Budgets nobody hits leave the exact stage in charge."""
    ladder = PolicyLadder(epsilon=0.5)
    state = State(n_models=3)
    sol = ladder.solve(tracker, state, scheduler)
    assert sol.latency == exact_by_state[state].latency
    assert sol.certificate is not None and sol.certificate.policy == "exact"


def test_resolve_policy_specs():
    assert isinstance(resolve_policy(None), ExactPolicy)
    assert isinstance(resolve_policy("exact"), ExactPolicy)
    assert isinstance(resolve_policy("list"), ListPolicy)
    bounded = resolve_policy("bounded:0.25")
    assert isinstance(bounded, BoundedPolicy) and bounded.epsilon == 0.25
    assert resolve_policy("bounded").epsilon == 0.1
    ladder = resolve_policy("ladder:0.3")
    assert isinstance(ladder, PolicyLadder) and ladder.epsilon == 0.3
    passthrough = BoundedPolicy(0.7)
    assert resolve_policy(passthrough) is passthrough
    for bad in ("oracle", "bounded:abc", "exact:1", 42):
        with pytest.raises(ScheduleError):
            resolve_policy(bad)
    with pytest.raises(ScheduleError):
        BoundedPolicy(-0.1)


def test_policies_cache_and_digests_separate(tracker, scheduler, tmp_path):
    cache = ScheduleCache(tmp_path / "sched")
    state = State(n_models=2)
    exact_req = ExactPolicy().request(scheduler, tracker, state)
    bounded_req = BoundedPolicy(0.5).request(scheduler, tracker, state)
    list_req = ListPolicy().request(scheduler, tracker, state)
    digests = {
        request_digest(exact_req),
        request_digest(bounded_req),
        request_digest(list_req),
    }
    assert len(digests) == 3  # each rung answers a different question

    first = BoundedPolicy(0.5).solve(tracker, state, scheduler, cache=cache)
    again = BoundedPolicy(0.5).solve(tracker, state, scheduler, cache=cache)
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
    sol = ListPolicy().solve(tracker, state, scheduler, cache=cache)
    hit = ListPolicy().solve(tracker, state, scheduler, cache=cache)
    assert cache.stats.hits == 1
    assert hit.certificate == sol.certificate
    assert hit.certificate.policy == "list"


def test_solve_many_cached_batch(tracker, scheduler, exact_by_state, tmp_path):
    cache = ScheduleCache(tmp_path / "sched")
    states = list(TRACKER_STATES)[:4]
    rung = resolve_policy("bounded:0.0")
    requests = [rung.request(scheduler, tracker, state) for state in states]
    sols = solve_many(requests, workers=1, cache=cache)
    assert [s.latency for s in sols] == [
        exact_by_state[st].latency for st in states
    ]
    again = solve_many(requests, workers=1, cache=cache)
    assert cache.stats.hits == len(states)
    assert [solution_to_dict(s) for s in again] == [
        solution_to_dict(s) for s in sols
    ]


def test_shape_table_builds_on_the_bounded_rung(tracker, cluster):
    """The faults layer's per-shape solves accept a ladder rung too."""
    from repro.faults.failover import ShapeTable

    exact = ShapeTable.build(tracker, State(n_models=2), cluster)
    bounded = ShapeTable.build(
        tracker, State(n_models=2), cluster, policy="bounded:0.5"
    )
    assert len(bounded) == len(exact)
    for sol in bounded.solutions():
        cert = sol.certificate
        assert cert is not None and cert.policy == "bounded"
        assert cert.gap_bound <= 0.5 + 1e-9
