"""Differential tests: the accelerated search vs. the unoptimized path.

The warm start, the transposition table and the hoisted inner loops are
all claimed to be semantics-preserving — same minimal latency L, same set
S up to canonical order.  These tests check that claim on a seeded
battery of random DAGs across cluster shapes and communication models,
including the ``latency_slack > 0`` frontier mode.

``max_solutions`` is set high enough that S is never truncated: when the
cap overflows, a cold run and a dominance run legitimately materialize
different ``max_solutions``-sized subsets of the same S.
"""

from __future__ import annotations

import pytest

from repro.core.enumerate import SearchProblem, enumerate_schedules, search_schedules
from repro.graph.builders import random_dag
from repro.sim.cluster import ClusterSpec, SINGLE_NODE_SMP
from repro.sim.network import CommCost, CommModel
from repro.state import State

_CAP = 4096


def _cold(graph, state, cluster, comm=None, **kw):
    problem = SearchProblem.from_graph(graph, state, cluster.procs_per_node)
    return search_schedules(
        problem, state, cluster, comm, incumbent=None, dominance=False,
        max_solutions=_CAP, **kw,
    )


def _fast(graph, state, cluster, **kw):
    return enumerate_schedules(graph, state, cluster, max_solutions=_CAP, **kw)


def _keys(result):
    return {s.canonical_key() for s in result.schedules}


def _check_identical(graph, state, cluster, **kw):
    cold = _cold(graph, state, cluster, **kw)
    fast = _fast(graph, state, cluster, **kw)
    assert fast.latency == cold.latency
    assert fast.optimal_count == cold.optimal_count
    assert _keys(fast) == _keys(cold)
    assert fast.explored <= cold.explored
    return cold, fast


@pytest.mark.parametrize("seed", range(8))
def test_random_dags_single_node(seed):
    graph = random_dag(n_tasks=5, seed=seed)
    _check_identical(graph, State(n_models=1), SINGLE_NODE_SMP(3))


@pytest.mark.parametrize("seed", range(8))
def test_random_dags_multi_node(seed):
    graph = random_dag(n_tasks=5, seed=100 + seed, edge_prob=0.5)
    _check_identical(graph, State(n_models=1), ClusterSpec(nodes=2, procs_per_node=2))


@pytest.mark.parametrize("seed", range(4))
def test_random_dags_with_comm(seed):
    cluster = ClusterSpec(nodes=2, procs_per_node=2)
    comm = CommModel(
        cluster,
        intra_node=CommCost(latency=0.01, bandwidth=1e6),
        inter_node=CommCost(latency=0.1, bandwidth=1e5),
    )
    graph = random_dag(n_tasks=5, seed=200 + seed, item_bytes=1000)
    _check_identical(graph, State(n_models=1), cluster, comm=comm)


@pytest.mark.parametrize("seed", range(4))
def test_random_dags_data_parallel(seed):
    graph = random_dag(n_tasks=4, seed=300 + seed, dp_prob=0.6)
    _check_identical(graph, State(n_models=2), SINGLE_NODE_SMP(4))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("slack", [0.25, 0.5])
def test_random_dags_latency_slack(seed, slack):
    """Frontier mode: the near-optimal set must also match exactly."""
    graph = random_dag(n_tasks=4, seed=400 + seed)
    _check_identical(
        graph, State(n_models=1), ClusterSpec(nodes=2, procs_per_node=2),
        latency_slack=slack,
    )


def test_tracker_m8_both_clusters(tracker_graph):
    state = State(n_models=8)
    for cluster in (SINGLE_NODE_SMP(4), ClusterSpec(nodes=2, procs_per_node=4)):
        _check_identical(tracker_graph, state, cluster)


def test_heterogeneous_speeds():
    graph = random_dag(n_tasks=5, seed=7)
    cluster = ClusterSpec(nodes=2, procs_per_node=2, node_speeds=(1.0, 2.0))
    _check_identical(graph, State(n_models=1), cluster)


def test_counters_accounting(tracker_graph):
    """elapsed_s and the pruning counters are populated and consistent."""
    result = _fast(tracker_graph, State(n_models=8), ClusterSpec(nodes=2, procs_per_node=4))
    assert result.elapsed_s > 0.0
    assert result.pruned == result.pruned_bound + result.pruned_dominance
    assert result.pruned_dominance > 0  # transpositions exist on 2 nodes
    cold = _cold(tracker_graph, State(n_models=8), ClusterSpec(nodes=2, procs_per_node=4))
    assert cold.pruned_dominance == 0  # table disabled
