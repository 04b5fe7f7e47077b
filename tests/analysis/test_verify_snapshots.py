"""The verifier over the build's cost snapshots == the verifier on its own.

``ScheduleTable.build(verify=True)`` hands ``verify_schedule_table`` the
``SearchProblem`` each request already holds; a standalone call builds its
snapshots with ``SearchProblem.from_graph``.  Both must produce the same
report, finding for finding — and the bounds inside the findings must be
the same floats the graph-walking code produced (``float.hex()``-equal),
so a clean table stays clean and a doctored one trips the same rules.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.analysis import verify_schedule_table, verify_solution
from repro.analysis.schedverify import _critical_path
from repro.apps.tracker.graph import build_tracker_graph
from repro.core.enumerate import SearchProblem, static_lower_bound
from repro.core.optimal import OptimalScheduler
from repro.core.table import ScheduleTable
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommModel
from repro.state import State, StateSpace

SPACE = StateSpace.range("n_models", 1, 3)
CLUSTERS = {
    "smp3": SINGLE_NODE_SMP(3),
    "2x2": ClusterSpec(2, 2),
    "hetero": ClusterSpec(procs_by_node=[2, 3], node_speeds=[1.0, 1.5]),
}
GRID = list(itertools.product(range(4), (4, 6), sorted(CLUSTERS), (False, True)))


def findings(report):
    return [(f.rule, f.location, f.message) for f in report.findings]


def snapshots_of(graph, space, scheduler):
    """What ``ScheduleTable.build`` hands in: each request's own snapshot."""
    requests = [scheduler.request(graph, state) for state in space]
    return {(r.state, r.dp_cap): r.problem for r in requests}


def build(seed, n_tasks, cluster_name, with_comm):
    cluster = CLUSTERS[cluster_name]
    comm = CommModel(cluster) if with_comm else None
    graph = random_dag(n_tasks, seed, dp_prob=0.4, item_bytes=50_000 if with_comm else 0)
    scheduler = OptimalScheduler(cluster, comm=comm)
    return graph, cluster, comm, scheduler, ScheduleTable.build(graph, SPACE, scheduler)


@pytest.mark.parametrize("seed,n_tasks,cluster_name,with_comm", GRID)
def test_build_snapshots_and_own_snapshots_give_one_report(
    seed, n_tasks, cluster_name, with_comm
):
    graph, cluster, comm, scheduler, table = build(seed, n_tasks, cluster_name, with_comm)
    handed = snapshots_of(graph, SPACE, scheduler)
    with_snaps = verify_schedule_table(table, graph, SPACE, cluster, comm=comm,
                                       snapshots=handed)
    alone = verify_schedule_table(table, graph, SPACE, cluster, comm=comm)
    assert findings(with_snaps) == findings(alone) == []


@pytest.mark.parametrize("seed,n_tasks,cluster_name,with_comm", GRID)
def test_bounds_are_the_graph_walks_floats(seed, n_tasks, cluster_name, with_comm):
    """S008's bound is ``TaskGraph.critical_path``'s; S013's root is the same
    ``static_lower_bound`` over a handed or a self-built snapshot."""
    graph, cluster, _comm, scheduler, _table = build(
        seed, n_tasks, cluster_name, with_comm
    )
    handed = snapshots_of(graph, SPACE, scheduler)
    cap = cluster.procs_per_node
    for state in SPACE:
        own = SearchProblem.from_graph(graph, state, max_workers=cap)
        walked = graph.critical_path(state, use_best_variants=True, max_workers=cap)
        assert _critical_path(own).hex() == walked.hex()
        assert _critical_path(handed[(state, cap)]).hex() == walked.hex()
        assert (
            static_lower_bound(handed[(state, cap)], cluster).hex()
            == static_lower_bound(own, cluster).hex()
        )


def doctored_cases():
    """(name, solution, graph, cluster, handed snapshots, rule it must trip)."""
    graph = random_dag(5, 3, dp_prob=0.4)
    smp = SINGLE_NODE_SMP(3)
    scheduler = OptimalScheduler(smp)
    state = State(n_models=2)
    sol = scheduler.solve(graph, state)
    handed = snapshots_of(graph, [state], scheduler)
    # S008: the claimed L is impossible on a half-speed node.
    slow = ClusterSpec(procs_by_node=[3], node_speeds=[0.5])
    yield "latency-below-critical-path", sol, graph, slow, handed, "S008"
    # S013: a root bound above what the snapshot supports.
    inflated = replace(sol, certificate=replace(sol.certificate,
                                                root_bound=sol.latency * 10))
    yield "inflated-root-bound", inflated, graph, smp, handed, "S013"
    # S013: a width-capped search (dp_cap=1) stamped with the cluster's cap.
    tracker, smp4, m8 = build_tracker_graph(), SINGLE_NODE_SMP(4), State(n_models=8)
    capped = OptimalScheduler(smp4, max_workers=1)
    narrow = capped.solve(tracker, m8)
    stamped = replace(narrow, certificate=replace(narrow.certificate, dp_cap=4))
    yield ("mismatched-dp-cap", stamped, tracker, smp4,
           snapshots_of(tracker, [m8], capped), "S013")


@pytest.mark.parametrize(
    "case", list(doctored_cases()), ids=lambda case: case[0]
)
def test_doctored_entries_trip_the_same_findings(case):
    _name, sol, graph, cluster, handed, rule = case
    with_snaps = verify_solution(sol, graph, cluster, snapshots=handed)
    alone = verify_solution(sol, graph, cluster)
    assert findings(with_snaps) == findings(alone)
    assert rule in {f.rule for f in alone.findings}, alone.summary()


def test_the_genuine_width_capped_entry_stays_clean():
    tracker, smp4, m8 = build_tracker_graph(), SINGLE_NODE_SMP(4), State(n_models=8)
    capped = OptimalScheduler(smp4, max_workers=1)
    sol = capped.solve(tracker, m8)
    handed = snapshots_of(tracker, [m8], capped)
    assert set(handed) == {(m8, 1)}  # S008 still needs (m8, 4): built here
    assert findings(verify_solution(sol, tracker, smp4, snapshots=handed)) == []
