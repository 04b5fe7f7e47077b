"""Solve payloads must pickle round-trip.

``fork`` inherits everything by memory, which silently tolerates
unpicklable payloads.  These tests pin the contract that the off-line
solve pipeline (``SearchProblem`` → ``SolveRequest`` → ``solve_many``)
and the ``ScheduleCache`` stay pure picklable data: a pool ships every
request and its result through pickle.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.cache import ScheduleCache
from repro.core.enumerate import SearchProblem
from repro.core.optimal import OptimalScheduler
from repro.core.parallel import incumbent_of, make_request, solve_many
from repro.graph.builders import chain_graph
from repro.sim.cluster import SINGLE_NODE_SMP


@pytest.fixture
def tracker_problem(tracker_graph, m8):
    return SearchProblem.from_graph(tracker_graph, m8, max_workers=4)


class TestPickleRoundTrips:
    def test_search_problem_round_trips(self, tracker_problem):
        clone = pickle.loads(pickle.dumps(tracker_problem))
        assert clone == tracker_problem
        # The digest payload drives cache keys: identical after the trip.
        assert clone.digest_payload() == tracker_problem.digest_payload()

    def test_solve_request_round_trips(self, tracker_graph, m8):
        # A bounded rung ships as one request.
        request = make_request(
            tracker_graph, m8, SINGLE_NODE_SMP(4), bound_inflation=0.1
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request
        assert clone.problem == request.problem
        assert clone.state == request.state
        # The bound a miss searches under is the clone's to compute, and it
        # is the original's, fallback schedule included.
        (bound, fallback), (cbound, cfallback) = (
            incumbent_of(request), incumbent_of(clone)
        )
        assert cbound == bound is not None
        assert cfallback.canonical_key() == fallback.canonical_key()

    def test_schedule_cache_round_trips(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert clone.stats.hits == 0

    def test_cache_usable_after_round_trip(self, tmp_path, m1):
        g = chain_graph([0.5, 0.5])
        cluster = SINGLE_NODE_SMP(2)
        scheduler = OptimalScheduler(cluster)
        request = scheduler.request(g, m1)
        sol = solve_many([request])[0]
        cache = pickle.loads(pickle.dumps(ScheduleCache(tmp_path)))
        cache.store(request, sol)
        hit = cache.fetch(request)
        assert hit is not None
        assert hit.latency == pytest.approx(sol.latency)

