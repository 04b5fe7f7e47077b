"""Incremental re-solve: re-costing, neighbor sets, warm-start tightening."""

from __future__ import annotations

from repro.approx import neighbor_states, recost_schedule, warm_start_from
from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import SearchProblem
from repro.core.optimal import OptimalScheduler
from repro.core.parallel import execute_request, incumbent_of, make_request
from repro.core.schedule import IterationSchedule, Placement
from repro.core.serialize import solution_to_dict
from repro.graph.builders import chain_graph
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace


def test_recost_same_state_reproduces_latency():
    graph = build_tracker_graph()
    cluster = ClusterSpec(nodes=2, procs_per_node=2)
    state = State(n_models=3)
    sol = OptimalScheduler(cluster).solve(graph, state)
    problem = SearchProblem.from_graph(
        graph, state, max_workers=cluster.procs_per_node
    )
    replay = recost_schedule(sol.iteration, problem, cluster)
    assert replay is not None
    # Same costs, same placements: the replay can only tighten idle gaps,
    # never exceed the schedule it replays.
    assert replay.latency <= sol.latency + 1e-9


def test_recost_under_new_state_is_legal_but_costed_fresh():
    graph = build_tracker_graph()
    cluster = SINGLE_NODE_SMP(4)
    sol = OptimalScheduler(cluster).solve(graph, State(n_models=2))
    problem = SearchProblem.from_graph(
        graph, State(n_models=3), max_workers=cluster.procs_per_node
    )
    replay = recost_schedule(sol.iteration, problem, cluster)
    assert replay is not None
    # n_models grew, so the re-costed latency grows with the new costs.
    assert replay.latency > sol.latency


def test_recost_rejects_vanished_variants():
    graph = build_tracker_graph(worker_counts=(2,))
    wide = build_tracker_graph(worker_counts=(2, 3, 4))
    cluster = SINGLE_NODE_SMP(4)
    sol = OptimalScheduler(cluster).solve(wide, State(n_models=8))
    problem = SearchProblem.from_graph(graph, State(n_models=8), max_workers=2)
    if any(p.variant not in ("serial",) and len(p.procs) > 2 for p in sol.iteration):
        assert recost_schedule(sol.iteration, problem, cluster) is None


def test_recost_rejects_foreign_task_sets():
    cluster = SINGLE_NODE_SMP(2)
    sol = OptimalScheduler(cluster).solve(chain_graph([1.0, 1.0]), State(n_models=1))
    other = chain_graph([1.0, 1.0, 1.0])
    problem = SearchProblem.from_graph(other, State(n_models=1), max_workers=2)
    assert recost_schedule(sol.iteration, problem, cluster) is None


def test_neighbor_states_are_adjacent():
    space = StateSpace.range("n_models", 1, 5)
    assert neighbor_states(space, State(n_models=3)) == [
        State(n_models=2),
        State(n_models=4),
    ]
    assert neighbor_states(space, State(n_models=1)) == [State(n_models=2)]
    assert neighbor_states(space, State(n_models=5)) == [State(n_models=4)]


def test_warm_start_tightens_the_incumbent():
    graph = build_tracker_graph()
    cluster = ClusterSpec(nodes=2, procs_per_node=2)
    neighbor = OptimalScheduler(cluster).solve(graph, State(n_models=3))
    request = make_request(graph, State(n_models=4), cluster, mode="solve")
    heft_bound, _ = incumbent_of(request)
    assert request.incumbent is None  # HEFT is computed on a miss, not carried
    assert warm_start_from(request, neighbor.iteration)
    assert request.incumbent is not None
    # The miss searches under the tighter of the two, never a looser one.
    assert incumbent_of(request)[0] == min(heft_bound, request.incumbent)
    # The warm-started search still finds the true optimum.
    warm = execute_request(request)
    cold = OptimalScheduler(cluster).solve(graph, State(n_models=4))
    assert solution_to_dict(warm) == solution_to_dict(cold)


def test_warm_start_never_loosens():
    graph = build_tracker_graph()
    cluster = SINGLE_NODE_SMP(4)
    neighbor = OptimalScheduler(cluster).solve(graph, State(n_models=2))
    request = make_request(graph, State(n_models=3), cluster, mode="solve")
    tight = 0.001
    request.incumbent = tight
    assert not warm_start_from(request, neighbor.iteration)
    assert request.incumbent == tight
    assert incumbent_of(request)[0] == tight


def test_a_neighbor_no_better_than_heft_does_not_become_the_bound():
    graph = build_tracker_graph()
    cluster = SINGLE_NODE_SMP(4)
    request = make_request(graph, State(n_models=3), cluster, bound_inflation=0.1)
    heft_bound, heft = incumbent_of(request)
    serial = IterationSchedule(  # everything on one processor: legal, slow
        [Placement(name, (0,), float(i), 1.0)
         for i, name in enumerate(request.problem.order_names)]
    )
    assert warm_start_from(request, serial)  # legal, so it rides along ...
    assert request.incumbent > heft_bound
    bound, fallback = incumbent_of(request)
    assert bound == heft_bound  # ... but HEFT's bound and fallback stand
    assert fallback.canonical_key() == heft.canonical_key()


def test_warm_start_across_every_tracker_adjacency():
    """Warm-started solves are bitwise-identical to cold ones, space-wide."""
    graph = build_tracker_graph()
    cluster = SINGLE_NODE_SMP(4)
    scheduler = OptimalScheduler(cluster)
    cold = {st: scheduler.solve(graph, st) for st in TRACKER_STATES}
    states = list(TRACKER_STATES)
    for prev, cur in zip(states, states[1:]):
        request = scheduler.request(graph, cur)
        warm_start_from(request, cold[prev].iteration)
        assert solution_to_dict(execute_request(request)) == solution_to_dict(
            cold[cur]
        )
