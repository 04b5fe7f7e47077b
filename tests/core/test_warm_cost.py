"""What a warm table build costs — as counts, which repeat exactly.

``offline_warm`` in ``benchmarks/e2e`` is the timing; these are the counts
behind it.  A build against a populated ``ScheduleCache`` is digest → fetch
→ deserialize → verify: it runs no list scheduler and no search (the HEFT
incumbent is computed by ``execute_request``, i.e. on a miss, once per
state), the analyzer still checks every entry, and the graph answers the
structural questions of all those passes from what it derived once — the
number of scans over its tasks does not grow with the state space.
"""

from __future__ import annotations

from unittest.mock import Mock

import pytest

import repro.analysis.model as model_mod
import repro.analysis.schedverify as schedverify_mod
import repro.core.parallel as parallel_mod
import repro.sched.listsched as listsched_mod
from repro.analysis.model import StmModel
from repro.approx.lazy import LazyScheduleTable
from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.cache import ScheduleCache
from repro.core.enumerate import SearchProblem
from repro.core.optimal import OptimalScheduler
from repro.core.serialize import solution_to_dict
from repro.core.table import ScheduleTable
from repro.graph.taskgraph import TaskGraph
from repro.obs.calibrate import ScaledCost, graph_with_costs
from repro.sim.cluster import ClusterSpec
from repro.state import StateSpace

CLUSTER = ClusterSpec(2, 4)
#: The queries a graph answers by looking at all of its tasks.
STRUCTURAL = ("producers", "consumers", "successors", "predecessors",
              "topo_order", "validate", "source_tasks", "sink_tasks")


@pytest.fixture
def spies(monkeypatch):
    out = {}
    for owner, attr in (
        (listsched_mod, "heft_schedule"),
        (parallel_mod, "search_schedules"),
        (schedverify_mod, "verify_solution"),
    ):
        out[attr] = Mock(wraps=getattr(owner, attr))
        monkeypatch.setattr(owner, attr, out[attr])
    return out


def _calls(spies):
    return {name: spy.call_count for name, spy in spies.items()}


def test_an_all_hit_build_runs_no_scheduler(tmp_path, spies):
    graph, n = build_tracker_graph(), len(TRACKER_STATES)
    cache = ScheduleCache(tmp_path)
    cold = ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                               cache=cache, verify=True)
    assert _calls(spies) == {
        "heft_schedule": n, "search_schedules": n, "verify_solution": n,
    }
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, n, n)

    for spy in spies.values():
        spy.reset_mock()
    warm = ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                               cache=cache, verify=True)
    lazy = LazyScheduleTable(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                             cache=cache)
    first = lazy.lookup(TRACKER_STATES[0])
    # The check is still there: every entry of the warm table was verified.
    assert _calls(spies) == {
        "heft_schedule": 0, "search_schedules": 0, "verify_solution": n,
    }
    assert (cache.stats.hits, cache.stats.misses) == (n + 1, n)
    assert first.latency == warm.lookup(TRACKER_STATES[0]).latency
    assert [s.latency for s in warm.solutions()] == [s.latency for s in cold.solutions()]


def test_a_warm_verified_build_reads_each_states_costs_once(tmp_path, monkeypatch):
    """One cost snapshot and one in-flight count per entry (both were 2n).

    The request's ``SearchProblem`` serves the certificates too (S005-S008
    and S013's root bound), and the model check counts each entry's items
    in flight once.
    """
    graph, n = build_tracker_graph(), len(TRACKER_STATES)
    cache = ScheduleCache(tmp_path)
    ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                        cache=cache, verify=True)

    snapshots = Mock(wraps=SearchProblem.from_graph)
    monkeypatch.setattr(SearchProblem, "from_graph", snapshots)
    in_flight = Mock(wraps=model_mod.schedule_in_flight)
    monkeypatch.setattr(model_mod, "schedule_in_flight", in_flight)
    warm = ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                               cache=cache, verify=True)
    assert cache.stats.hits == n
    assert all(sol.certificate is not None for sol in warm.solutions())
    assert snapshots.call_count == n
    assert in_flight.call_count == n


def test_a_warm_verified_build_explores_no_model(tmp_path, monkeypatch):
    """The STM proof is one per channel structure, not one per build.

    Costs are not part of the transition system, so a recalibrated graph
    (a cold build: every state misses the cache) is proved already too.
    """
    graph = build_tracker_graph()
    cache = ScheduleCache(tmp_path)
    ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                        cache=cache, verify=True)
    explored = []
    real = StmModel.explore

    def counted(self, *args, **kwargs):
        explored.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StmModel, "explore", counted)
    ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                        cache=cache, verify=True)
    assert cache.stats.hits == len(TRACKER_STATES)
    slower = graph_with_costs(graph, {t.name: ScaledCost(t.cost, 1.5) for t in graph})
    ScheduleTable.build(slower, StateSpace.range("n_models", 1, 2),
                        OptimalScheduler(CLUSTER), verify=True)
    assert explored == []


def test_a_lazy_hit_beside_a_solved_neighbor_recosts_nothing(tmp_path):
    """A look-up beside a solved state is a plain fetch, and a cold miss
    stores what the cache holds for the same state."""
    graph, n = build_tracker_graph(), len(TRACKER_STATES)
    cache = ScheduleCache(tmp_path)
    ScheduleTable.build(graph, TRACKER_STATES, OptimalScheduler(CLUSTER), cache=cache)

    lazy = LazyScheduleTable(graph, TRACKER_STATES, OptimalScheduler(CLUSTER),
                             cache=cache)
    lazy.lookup(TRACKER_STATES[0])
    lazy.lookup(TRACKER_STATES[1])  # TRACKER_STATES[0] is its solved neighbor
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (2, n, n)

    cold = LazyScheduleTable(graph, TRACKER_STATES, OptimalScheduler(CLUSTER))
    cold.lookup(TRACKER_STATES[0])
    solved = cold.lookup(TRACKER_STATES[1])  # a miss, beside a solved state
    assert solution_to_dict(solved) == solution_to_dict(lazy.lookup(TRACKER_STATES[1]))


class _CountedTasks(dict):
    """``TaskGraph._tasks`` that counts full iterations while a query runs."""

    depth = 0
    scans = 0

    def _scan(self, it):
        if self.depth:
            self.scans += 1
        return it

    def values(self):
        return self._scan(super().values())

    def items(self):
        return self._scan(super().items())

    def __iter__(self):
        return self._scan(super().__iter__())


def _scans_during_build(monkeypatch, tmp_path, space) -> int:
    graph = build_tracker_graph().copy()  # a copy has derived nothing yet
    tasks = graph._tasks = _CountedTasks(graph._tasks)
    for name in STRUCTURAL:
        query = getattr(TaskGraph, name)

        def counted(self, *args, _query=query):
            if self is not graph:
                return _query(self, *args)
            tasks.depth += 1
            try:
                return _query(self, *args)
            finally:
                tasks.depth -= 1

        monkeypatch.setattr(TaskGraph, name, counted)
    cache = ScheduleCache(tmp_path / f"scans-{len(space)}")
    for _ in range(2):  # the populating build, then the all-hit one
        ScheduleTable.build(graph, space, OptimalScheduler(CLUSTER),
                            cache=cache, verify=True)
    assert cache.stats.hits == len(space)
    return tasks.scans


def test_structural_scans_do_not_grow_with_the_state_space(monkeypatch, tmp_path):
    graph = build_tracker_graph()
    with monkeypatch.context() as patch:
        two = _scans_during_build(patch, tmp_path, StateSpace.range("n_models", 1, 2))
    with monkeypatch.context() as patch:
        eight = _scans_during_build(patch, tmp_path, TRACKER_STATES)
    assert 0 < two == eight
    assert eight <= 2 * len(graph.channels) + 2 * len(graph) + 8
