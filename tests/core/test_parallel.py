"""Tests for the off-line solve path (repro.core.parallel)."""

from __future__ import annotations

import inspect
import multiprocessing.process
import os
import subprocess
from collections import Counter
from unittest.mock import Mock

import pytest

from repro.approx.policy import resolve_policy
from repro.core.cache import ScheduleCache
from repro.core.enumerate import SearchProblem, enumerate_schedules, search_schedules
from repro.core.frontier import frontier_sweep, latency_throughput_frontier
from repro.core.optimal import OptimalScheduler, solution_from_enumeration
from repro.core.parallel import (
    SolveRequest,
    execute_request,
    incumbent_of,
    make_request,
    solve_many,
)
from repro.core.pipeline import PipelineSearch
from repro.core.schedule import ScheduleSolution
from repro.core.sensitivity import sensitivity_profile
from repro.core.serialize import solution_to_dict, table_to_json
from repro.core.table import ScheduleTable
from repro.errors import ExperimentError, RegimeError, ScheduleError
from repro.experiments.fleet_exp import run_fleet
from repro.faults.failover import ShapeTable
from repro.graph.builders import chain_graph, fork_join_graph
from repro.graph.cost import CallableCost
from repro.sim.cluster import ClusterSpec, SINGLE_NODE_SMP
from repro.sim.network import CommCost, CommModel
from repro.state import State, StateSpace


@pytest.fixture
def cluster():
    return ClusterSpec(nodes=2, procs_per_node=2)


def _each(solve_one):
    return lambda graph, states, cluster: [
        solve_one(graph, state, cluster) for state in states
    ]


def _table(policy):
    return lambda graph, states, cluster: ScheduleTable.build(
        graph, StateSpace(states), OptimalScheduler(cluster), policy=policy
    )


# name -> (entry point over a list of states, searches it runs per state)
ENTRY_POINTS = {
    "solve": (_each(lambda g, s, c: OptimalScheduler(c).solve(g, s)), 1),
    "enumerate": (_each(lambda g, s, c: OptimalScheduler(c).enumerate(g, s)), 1),
    "enumerate_schedules": (_each(enumerate_schedules), 1),
    "frontier": (
        _each(lambda g, s, c: latency_throughput_frontier(g, s, c, include_naive=False)),
        1,
    ),
    "table-exact": (_table("exact"), 1),
    "table-bounded": (_table("bounded:0.1"), 1),
    "table-list": (_table("list"), 0),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_is_one_request(monkeypatch, cluster, name):
    """One snapshot, one HEFT, at most one search, each cost read once per state.

    There is one road to an answer (request -> execute), so the direct
    entry points and the table builders must show the same call profile.
    At the parent every task's cost was evaluated three times a request.
    """
    import repro.core.parallel as parallel_mod
    import repro.sched.listsched as listsched_mod

    entry, searches = ENTRY_POINTS[name]
    spies = {}
    for owner, attr in (
        (SearchProblem, "from_graph"),
        (listsched_mod, "heft_schedule"),
        (parallel_mod, "search_schedules"),
    ):
        spies[attr] = Mock(wraps=getattr(owner, attr))
        monkeypatch.setattr(owner, attr, spies[attr])
    cost_reads = Counter()

    def counted(task, seconds):
        def fn(state):
            cost_reads[task] += 1
            return seconds * state.n_models
        return CallableCost(fn, label=task)

    graph = fork_join_graph(
        counted("s", 0.2), [counted("a", 1.0), counted("b", 0.5)], counted("j", 0.2)
    )
    states = [State(n_models=m) for m in (1, 2, 3)]

    entry(graph, states, cluster)

    n = len(states)
    assert spies["from_graph"].call_count == n
    assert spies["heft_schedule"].call_count == n
    assert spies["search_schedules"].call_count == searches * n
    assert cost_reads == {task: n for task in ("s", "a", "b", "j")}


# comm model -> (explored cold / warm / warm + dominance, exact II searches of step 3)
TRACKER_M8_SEARCH = {"comm": ((73, 36, 23), 8), "free_comm": ((309, 282, 186), 16)}


@pytest.mark.parametrize("comm", TRACKER_M8_SEARCH)
def test_warm_start_and_dominance_cut_the_tracker_m8_search(monkeypatch, tracker_graph, comm):
    """Tracker m=8 on 2x4: each acceleration explores fewer nodes, same answer.

    The cold and warm searches switch the accelerations off at the search
    core, on the request's own snapshot and HEFT incumbent; the third is
    ``execute_request`` itself.  The counts are exact: a change that moves
    one has changed a prune decision or the node order.  Under the two-tier
    network the accelerations cut the tree > 3x; with free communication
    the optimum is degenerate (|S| = 56) and every member must be visited.
    Step 3 then runs one exact II search per surviving (member, shift).
    """
    cluster = ClusterSpec(nodes=2, procs_per_node=4)
    cm = None
    if comm == "comm":
        cm = CommModel(
            cluster,
            intra_node=CommCost(latency=0.0005, bandwidth=1e9),
            inter_node=CommCost(latency=0.002, bandwidth=1e8),
        )
    state = State(n_models=8)
    request = make_request(
        tracker_graph, state, cluster, cm, mode="enumerate", max_solutions=4096
    )
    cold, warm = (
        search_schedules(
            request.problem, state, cluster, cm,
            incumbent=incumbent, dominance=False, max_solutions=4096,
        )
        for incumbent in (None, incumbent_of(request)[0])
    )
    fast = execute_request(request)
    explored, ii_searches = TRACKER_M8_SEARCH[comm]
    assert (cold.explored, warm.explored, fast.explored) == explored
    assert cold.latency == warm.latency == fast.latency
    keys = lambda r: {s.canonical_key() for s in r.schedules}
    assert keys(cold) == keys(warm) == keys(fast)

    searches = []
    exact = PipelineSearch.min_ii
    monkeypatch.setattr(
        PipelineSearch, "min_ii",
        lambda self, shift: searches.append(shift) or exact(self, shift),
    )
    result = enumerate_schedules(tracker_graph, state, cluster, comm=cm)
    solution_from_enumeration(result, cluster).pipelined.validate_conflict_free()
    assert len(searches) == ii_searches


def test_unknown_mode_rejected(tracker_graph, cluster):
    with pytest.raises(ValueError, match="mode"):
        make_request(tracker_graph, State(n_models=1), cluster, mode="wat")


NAN = float("nan")


@pytest.mark.parametrize("setting", [
    dict(max_solutions=0), dict(node_limit=0), dict(node_limit=-5),
    dict(tolerance=-1.0), dict(latency_slack=-0.5),
    dict(tolerance=NAN), dict(bound_inflation=NAN),
    dict(epsilon="nan"), dict(epsilon="inf"), dict(epsilon="1e400"),
], ids=["max_solutions", "node_limit", "node_limit-negative", "tolerance",
        "latency_slack", "tolerance-nan", "bound_inflation-nan",
        "epsilon-nan", "epsilon-inf", "epsilon-1e400"])
def test_out_of_range_settings_are_refused_by_name(tracker_graph, setting):
    """Not reported as an unschedulable graph: the request refuses them,
    before any search could read its ScheduleError as a blown budget (a
    bounded request would serve the HEFT fallback for it), and the search
    called directly refuses them with the same message.  A non-finite ε
    is refused too: every prune comparison with a NaN is false, so it
    would switch bound pruning off, and an infinite one certifies
    nothing."""
    (name,) = setting
    state, smp = State(n_models=2), SINGLE_NODE_SMP(4)

    def refused(name=name):
        return pytest.raises(ScheduleError, match=f"^{name} must be ")

    if name == "epsilon":  # a rung's ε, as a spec string and as a keyword
        eps = setting[name]
        for rung in (resolve_policy(f"bounded:{eps}"), dict(bound_inflation=float(eps))):
            with refused("bound_inflation"):
                make_request(tracker_graph, state, smp, **rung)
        return
    # The search refuses them by the same name, never as "no legal schedule"
    # or a blown budget.
    problem = SearchProblem.from_graph(tracker_graph, state, max_workers=4)
    with refused():
        search_schedules(problem, state, smp, **setting)
    if name != "bound_inflation":  # enumerate_schedules takes no ε
        with refused():
            enumerate_schedules(tracker_graph, state, smp, **setting)
    with refused():
        make_request(tracker_graph, state, smp, **setting)


def test_solve_many_in_process_order(tracker_graph, cluster):
    sched = OptimalScheduler(cluster)
    states = [State(n_models=m) for m in (3, 1, 2)]
    reqs = [sched.request(tracker_graph, s, tag=s) for s in states]
    out = solve_many(reqs)
    assert [sol.state for sol in out] == states


def test_solve_many_return_exceptions(tracker_graph, cluster):
    sched = OptimalScheduler(cluster)
    ok = sched.request(tracker_graph, State(n_models=1))
    bad = SolveRequest(
        problem=ok.problem,
        state=ok.state,
        cluster=cluster,
        node_limit=1,  # guaranteed to trip the safety valve
    )
    out = solve_many([ok, bad, ok], return_exceptions=True)
    assert isinstance(out[0], ScheduleSolution)
    assert isinstance(out[1], ScheduleError)
    assert isinstance(out[2], ScheduleSolution)


def test_solve_many_raises_without_flag(tracker_graph, cluster):
    ok = OptimalScheduler(cluster).request(tracker_graph, State(n_models=1))
    bad = SolveRequest(
        problem=ok.problem, state=ok.state, cluster=cluster, node_limit=1
    )
    with pytest.raises(ScheduleError, match="node_limit"):
        solve_many([ok, bad])


def test_table_build_keeps_space_order(cluster):
    graph = chain_graph([1.0, 0.5])
    space = StateSpace.range("n_models", 1, 3)
    table = ScheduleTable.build(graph, space, OptimalScheduler(cluster))
    assert table.states() == list(space)


def test_pinned_worker_keywords_refuse_a_pool(cluster):
    """The two worker keywords left take 1 only: the solve is in-process."""
    graph = chain_graph([1.0, 0.5])
    space = StateSpace.range("n_models", 1, 2)
    scheduler = OptimalScheduler(cluster)
    assert len(ScheduleTable.build(graph, space, scheduler, parallel=1)) == 2
    with pytest.raises(RegimeError, match="in-process"):
        ScheduleTable.build(graph, space, scheduler, parallel=2)
    with pytest.raises(ExperimentError, match="in-process"):
        run_fleet(cluster=ClusterSpec(2, 2), wave_sizes=(1,), workers=2)


@pytest.mark.parametrize("parallel", [None, 0, 4])
def test_table_build_refuses_every_parallel_but_one(cluster, parallel):
    # None and 0 once meant "in-process" / "every CPU"; neither is a
    # synonym for 1 now.
    graph = chain_graph([1.0, 0.5])
    with pytest.raises(RegimeError, match="in-process"):
        ScheduleTable.build(
            graph, StateSpace.range("n_models", 1, 2), OptimalScheduler(cluster),
            parallel=parallel,
        )


@pytest.mark.parametrize("workers", [None, 0, 4])
def test_run_fleet_refuses_every_workers_but_one(workers):
    with pytest.raises(ExperimentError, match="in-process"):
        run_fleet(cluster=ClusterSpec(2, 2), wave_sizes=(1,), workers=workers)


def test_pinned_worker_keywords_default_to_one():
    build = inspect.signature(ScheduleTable.build).parameters["parallel"]
    fleet = inspect.signature(run_fleet).parameters["workers"]
    assert build.default == 1 and fleet.default == 1


def test_parallel_one_builds_the_default_table():
    graph = fork_join_graph(0.2, [1.0, 1.0, 0.5], 0.2)
    space = StateSpace.range("n_models", 1, 4)
    sched = OptimalScheduler(SINGLE_NODE_SMP(3))
    assert table_to_json(ScheduleTable.build(graph, space, sched)) == table_to_json(
        ScheduleTable.build(graph, space, sched, parallel=1)
    )


def test_default_table_builds_fork_no_pool(monkeypatch, cluster):
    """No table build, sweep or batch starts a process: the off-line
    phase runs in the caller's.  Attempts are recorded as well as refused,
    so a fallback that swallows the refusal cannot hide one."""
    attempts = []

    def refuse(*args, **kwargs):
        attempts.append(args)
        raise OSError("the off-line phase started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    graph = chain_graph([1.0, 0.5])
    state = State(n_models=1)
    sched = OptimalScheduler(cluster)
    assert len(ScheduleTable.build(
        graph, StateSpace.range("n_models", 1, 3), sched
    )) == 3
    assert len(ShapeTable.build(graph, state, cluster)) >= 2
    assert len(frontier_sweep(graph, [state, State(n_models=2)], cluster)) == 2
    sol = sched.solve(graph, state)
    profile = sensitivity_profile(
        sol.iteration, graph, state, cluster, error_level=0.1, trials=3
    )
    assert profile.max_regret >= 0.0
    assert len(solve_many([sched.request(graph, State(n_models=m)) for m in (1, 2)])) == 2
    assert attempts == []


def test_solve_many_empty_batch(tmp_path):
    cache = ScheduleCache(tmp_path)
    assert solve_many([]) == []
    assert solve_many([], cache=cache) == []
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 0, 0)


def test_solve_many_matches_execute_request(tracker_graph, cluster):
    sched = OptimalScheduler(cluster)
    reqs = [sched.request(tracker_graph, State(n_models=m)) for m in (2, 1, 3)]
    assert [solution_to_dict(s) for s in solve_many(reqs)] == [
        solution_to_dict(execute_request(r)) for r in reqs
    ]


def _counting_execute(monkeypatch):
    import repro.core.parallel as parallel_mod

    spy = Mock(wraps=parallel_mod.execute_request)
    monkeypatch.setattr(parallel_mod, "execute_request", spy)
    return spy


def test_solve_many_cache_solves_the_misses_once(monkeypatch, tmp_path, cluster):
    execute = _counting_execute(monkeypatch)
    graph = chain_graph([1.0, 0.5])
    sched = OptimalScheduler(cluster)
    reqs = [sched.request(graph, State(n_models=m)) for m in (1, 2, 3)]
    cache = ScheduleCache(tmp_path)
    first = solve_many(reqs, cache=cache)
    assert execute.call_count == 3
    assert (cache.stats.misses, cache.stats.stores, len(cache)) == (3, 3, 3)
    again = solve_many(reqs, cache=cache)
    assert execute.call_count == 3  # every request hit
    assert cache.stats.hits == 3
    assert [solution_to_dict(s) for s in again] == [
        solution_to_dict(s) for s in first
    ]


def test_solve_many_fetches_the_whole_batch_before_storing(
    monkeypatch, tmp_path, cluster
):
    # A request repeated inside one batch misses twice: every fetch runs
    # before the first store, so the cache's counts do not depend on
    # how the misses are executed.
    execute = _counting_execute(monkeypatch)
    req = OptimalScheduler(cluster).request(chain_graph([1.0, 0.5]), State(n_models=2))
    cache = ScheduleCache(tmp_path)
    a, b = solve_many([req, req], cache=cache)
    assert execute.call_count == 2
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 2, 2)
    assert len(cache) == 1
    assert solution_to_dict(a) == solution_to_dict(b)


def test_solve_many_stores_no_exception(tmp_path, tracker_graph, cluster):
    ok = OptimalScheduler(cluster).request(tracker_graph, State(n_models=1))
    bad = SolveRequest(
        problem=ok.problem, state=ok.state, cluster=cluster, node_limit=1
    )
    cache = ScheduleCache(tmp_path)
    out = solve_many([bad, ok], return_exceptions=True, cache=cache)
    assert isinstance(out[0], ScheduleError)
    assert cache.stats.stores == 1 and len(cache) == 1
    assert solution_to_dict(cache.fetch(ok)) == solution_to_dict(out[1])


def test_solve_many_error_stores_nothing(tmp_path, tracker_graph, cluster):
    # Without return_exceptions the batch raises before its store step:
    # the solution found ahead of the failing request is not kept either.
    ok = OptimalScheduler(cluster).request(tracker_graph, State(n_models=1))
    bad = SolveRequest(
        problem=ok.problem, state=ok.state, cluster=cluster, node_limit=1
    )
    cache = ScheduleCache(tmp_path)
    with pytest.raises(ScheduleError, match="node_limit"):
        solve_many([ok, bad], cache=cache)
    assert cache.stats.stores == 0 and len(cache) == 0
