"""Tests for the persistent schedule cache (repro.core.cache)."""

from __future__ import annotations

import json

import pytest

from repro.core.cache import ScheduleCache, default_cache_dir, request_digest
from repro.core.optimal import OptimalScheduler
from repro.core.parallel import execute_request, make_request
from repro.core.serialize import table_to_json
from repro.core.table import ScheduleTable
from repro.graph.builders import chain_graph, random_dag
from repro.sim.cluster import ClusterSpec, SINGLE_NODE_SMP
from repro.sim.network import CommCost, CommModel
from repro.state import State, StateSpace


@pytest.fixture
def cluster():
    return ClusterSpec(nodes=2, procs_per_node=2)


@pytest.fixture
def cache(tmp_path):
    return ScheduleCache(tmp_path / "schedules")


def _request(graph, state, cluster, **kwargs):
    return make_request(graph, state, cluster, **kwargs)


def test_roundtrip_hit(tracker_graph, cluster, cache):
    req = _request(tracker_graph, State(n_models=3), cluster)
    assert cache.fetch(req) is None
    solution = execute_request(req)
    cache.store(req, solution)
    hit = cache.fetch(req)
    assert hit is not None
    assert hit.latency == solution.latency
    assert hit.period == solution.period
    assert hit.iteration.canonical_key() == solution.iteration.canonical_key()
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.stores == 1 and len(cache) == 1


def test_digest_stable_across_processes_and_names(tracker_graph, cluster):
    a = _request(tracker_graph, State(n_models=2), cluster)
    b = _request(tracker_graph, State(n_models=2), cluster)
    assert request_digest(a) == request_digest(b)
    # The caller's label never changes the answer, so it never changes the key.
    tagged = _request(tracker_graph, State(n_models=2), cluster, tag="label")
    assert request_digest(a) == request_digest(tagged)


def test_digest_sensitive_to_inputs(tracker_graph, cluster):
    base = _request(tracker_graph, State(n_models=2), cluster)
    other_state = _request(tracker_graph, State(n_models=3), cluster)
    assert request_digest(base) != request_digest(other_state)
    other_cluster = _request(
        tracker_graph, State(n_models=2), ClusterSpec(nodes=1, procs_per_node=4)
    )
    assert request_digest(base) != request_digest(other_cluster)
    comm = CommModel(
        cluster,
        intra_node=CommCost(latency=0.001, bandwidth=1e9),
        inter_node=CommCost(latency=0.01, bandwidth=1e8),
    )
    with_comm = _request(tracker_graph, State(n_models=2), cluster, comm=comm)
    assert request_digest(base) != request_digest(with_comm)
    other_params = _request(
        tracker_graph, State(n_models=2), cluster, latency_slack=0.5
    )
    assert request_digest(base) != request_digest(other_params)


@pytest.mark.parametrize("seed", [1, 8, 17])
def test_bounded_digest_covers_node_limit(cache, seed):
    """A bounded request that blows its budget serves the HEFT fallback, so
    its node budget decides the answer and is part of its key: a
    default-budget request is never served a tight-budget request's
    ``list`` entry.  Exact and list requests still ignore the budget."""
    graph = random_dag(8, seed=seed, dp_prob=0.3)
    state, smp = State(n_models=4), SINGLE_NODE_SMP(4)
    tight = _request(graph, state, smp, bound_inflation=0.01, node_limit=5)
    roomy = _request(graph, state, smp, bound_inflation=0.01)
    assert request_digest(tight) != request_digest(roomy)
    for overrides in (dict(), dict(mode="list")):
        assert request_digest(
            _request(graph, state, smp, node_limit=5, **overrides)
        ) == request_digest(_request(graph, state, smp, **overrides))

    blown = execute_request(tight)
    assert blown.certificate.policy == "list"
    cache.store(tight, blown)
    assert cache.fetch(tight) is not None
    assert cache.fetch(roomy) is None
    fresh = execute_request(roomy)
    assert fresh.certificate.policy == "bounded"
    assert fresh.latency < blown.latency


def test_digest_sensitive_to_costs(cluster):
    g1 = chain_graph([1.0, 2.0])
    g2 = chain_graph([1.0, 2.5])
    s = State(n_models=1)
    assert request_digest(_request(g1, s, cluster)) != request_digest(
        _request(g2, s, cluster)
    )


def test_digest_ignores_graph_name(cluster):
    g1 = chain_graph([1.0, 2.0], name="alpha")
    g2 = chain_graph([1.0, 2.0], name="beta")
    s = State(n_models=1)
    assert request_digest(_request(g1, s, cluster)) == request_digest(
        _request(g2, s, cluster)
    )


def test_entries_are_compact_and_an_indented_one_still_hits(
    tracker_graph, cluster, cache
):
    """``store`` writes compact JSON; the version did not move, so an entry
    an older build wrote with ``indent=2`` — same payload, same file name —
    is still a hit, and reads back as the same solution."""
    from repro.core.serialize import solution_to_dict

    req = _request(tracker_graph, State(n_models=3), cluster)
    solution = execute_request(req)
    cache.store(req, solution)
    path = cache._path(request_digest(req))
    compact = path.read_text()
    assert "\n" not in compact and ": " not in compact
    payload = {
        "format": "repro.schedule_solution",
        "version": 2,
        "digest": request_digest(req),
        "solution": solution_to_dict(solution),
    }
    assert json.loads(compact) == payload
    path.write_text(json.dumps(payload, indent=2))  # the older layout, by hand
    assert len(path.read_text()) > len(compact)
    hit = cache.fetch(req)
    assert hit is not None and cache.stats.invalidations == 0
    assert solution_to_dict(hit) == solution_to_dict(solution)


def test_corrupt_entry_invalidated(tracker_graph, cluster, cache):
    req = _request(tracker_graph, State(n_models=1), cluster)
    cache.store(req, execute_request(req))
    path = cache.root / f"{request_digest(req)}.json"
    path.write_text("{ truncated garbage")
    assert cache.fetch(req) is None
    assert cache.stats.invalidations == 1
    assert not path.exists(), "corrupt entry must be deleted"
    # A re-solve + store recovers.
    cache.store(req, execute_request(req))
    assert cache.fetch(req) is not None


def test_wrong_format_invalidated(tracker_graph, cluster, cache):
    req = _request(tracker_graph, State(n_models=1), cluster)
    cache.store(req, execute_request(req))
    path = cache.root / f"{request_digest(req)}.json"
    payload = json.loads(path.read_text())
    payload["format"] = "something.else"
    path.write_text(json.dumps(payload))
    assert cache.fetch(req) is None
    assert cache.stats.invalidations == 1


def test_enumerate_mode_never_cached(tracker_graph, cluster, cache):
    req = _request(tracker_graph, State(n_models=1), cluster, mode="enumerate")
    result = execute_request(req)
    cache.store(req, result)
    assert len(cache) == 0
    assert cache.fetch(req) is None


def test_clear(tracker_graph, cluster, cache):
    for m in (1, 2):
        req = _request(tracker_graph, State(n_models=m), cluster)
        cache.store(req, execute_request(req))
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_SCHEDULE_CACHE")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro" / "schedules"


def test_table_build_cache_lossless(tracker_graph, cache):
    cluster = SINGLE_NODE_SMP(4)
    space = StateSpace.range("n_models", 1, 3)
    sched = OptimalScheduler(cluster)
    reference = table_to_json(ScheduleTable.build(tracker_graph, space, sched))
    first = ScheduleTable.build(tracker_graph, space, sched, cache=cache)
    assert cache.stats.misses == cache.stats.stores == len(space)
    cached = ScheduleTable.build(tracker_graph, space, sched, cache=cache)
    assert cache.stats.hits == len(space)
    assert table_to_json(first) == table_to_json(cached) == reference
