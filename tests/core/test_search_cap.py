"""The tie cut: a full kept set stops the exact search looking for ties.

Once ``max_solutions`` members are kept at the current best L, a leaf can
change the set only by improving L, so ``search_schedules`` prunes every
subtree that cannot hold one (the argument is in ``repro.core.enumerate``'s
module docstring).  These tests hold what it serves to the oracle
(``search_reference_oracle.py``, the uncut body):

* whole tables — tracker on both clusters, every frozen workload instance,
  seeded random DAGs, at caps 1, 2, 8 and 64 — are byte-equal to tables
  built on the oracle's search, except ``alternatives`` / ``explored`` of
  the states whose kept set filled;
* bounded (ε > 0) and slack searches keep the oracle's tree;
* an improvement of L by between ``tolerance`` and ``2·tolerance`` after a
  tie was cut — the one window the cut cannot close — reruns the search
  without the cut and keeps the oracle's set.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest

import repro.core.enumerate as enumerate_mod
import repro.core.parallel as parallel_mod
from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import search_schedules
from repro.core.optimal import OptimalScheduler
from repro.core.parallel import make_request
from repro.core.serialize import table_to_json
from repro.core.table import ScheduleTable
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State
from repro.workloads import get_family, load_dataset

from . import search_reference_oracle as oracle
from .test_search_diff import COLD, WARM, _run, oracle_run, oracle_search

CAPS = (1, 2, 8, 64)
M4 = State(n_models=4)


def _tables_agree(graph, states, cluster, cap, comm=None):
    """Build the table on both searches; returns how many states filled."""
    scheduler = OptimalScheduler(cluster, comm=comm, max_solutions=cap)
    table = ScheduleTable.build(graph, states, scheduler)
    filled = {}

    def search(problem, state, cluster, comm=None, **kw):
        result, filled[state] = oracle_search(problem, state, cluster, comm, **kw)
        return result

    with mock.patch.object(parallel_mod, "search_schedules", search):
        reference = ScheduleTable.build(graph, states, scheduler)
    # A filled state may differ in its two counters only: take them from
    # the cut search's entry, then the texts must match byte for byte.
    patched = {}
    for ref in reference.solutions():
        sol = table.lookup(ref.state)
        if filled[ref.state]:
            assert sol.explored <= ref.explored
            if ref.alternatives <= cap:
                assert sol.alternatives == ref.alternatives
            else:
                assert cap <= sol.alternatives <= ref.alternatives
            ref = dataclasses.replace(
                ref, alternatives=sol.alternatives, explored=sol.explored
            )
        patched[ref.state] = ref
    assert table_to_json(table) == table_to_json(ScheduleTable(patched)), (
        graph.name, cluster, cap,
    )
    return sum(filled.values())


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("cluster", [ClusterSpec(2, 4), SINGLE_NODE_SMP(4)],
                         ids=["2x4", "smp4"])
def test_tracker_tables(cluster, cap):
    filled = _tables_agree(build_tracker_graph(), TRACKER_STATES, cluster, cap)
    # |S| is 56 on 2x4 and 8 on smp4 in every state: no tracker set fills at 64
    assert filled == (len(TRACKER_STATES) if cap <= 8 else 0)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("family", ["matmul", "fusion", "webinfer"])
def test_frozen_workload_tables(family, cap):
    fam = get_family(family)
    filled = 0
    for inst in load_dataset(family):
        if inst.expected_findings:
            continue  # deliberately unschedulable entries
        filled += _tables_agree(
            fam.build_graph(inst), list(fam.state_space(inst)), fam.cluster(inst), cap
        )
    assert filled > 0 or (cap == 64 and family != "fusion")


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("n_tasks", [4, 5, 6, 7])
def test_random_dag_tables(n_tasks, cap):
    for seed in range(4):
        for cluster in (ClusterSpec(2, 2), ClusterSpec(1, 3)):
            graph = random_dag(n_tasks, seed, dp_prob=0.3)
            _tables_agree(graph, [M4, State(n_models=1)], cluster, cap)


def _same_tree(graph, state, cluster, **kw):
    req = make_request(graph, state, cluster, mode="enumerate")
    for mode in (WARM, COLD):
        found = _run(search_schedules, req, mode, **kw)
        reference, fills = oracle_run(req, mode, **kw)
        if fills and kw.get("latency_slack"):
            # A full set under slack keeps a latency-L member on purpose
            # (test_enumerate.py), so the members and — without the table,
            # where a repeated key is tested against them — the count may
            # differ; the tree may not.
            found, reference = found[:6] + found[7:-1], reference[:6] + reference[7:-1]
        assert found == reference, (graph.name, state, cluster, mode, kw)


@pytest.mark.parametrize("cap", CAPS)
def test_bounded_searches_keep_the_whole_tree(cap):
    for state in TRACKER_STATES[::3]:
        _same_tree(build_tracker_graph(), state, ClusterSpec(2, 4),
                   bound_inflation=0.5, max_solutions=cap)
    for seed in range(6):
        _same_tree(random_dag(5, seed, dp_prob=0.3), M4, ClusterSpec(2, 2),
                   bound_inflation=0.25, max_solutions=cap)


@pytest.mark.parametrize("cap", CAPS)
def test_slack_searches_keep_the_whole_tree(cap):
    for seed in range(6):
        for cluster in (ClusterSpec(2, 2), SINGLE_NODE_SMP(3)):
            _same_tree(random_dag(4, seed, dp_prob=0.3), M4, cluster,
                       latency_slack=0.25, max_solutions=cap)


def test_an_improvement_inside_the_window_reruns_without_the_cut():
    """Found by scanning random DAGs at a wide tolerance: the set fills at
    some B, a later leaf improves L to within (B − 2·tol, B − tol), and a
    node the cut had pruned is reached again by another interleaving.
    Without the rerun the search keeps a different set than the oracle."""
    graph, cluster = random_dag(5, 21, dp_prob=0.3), ClusterSpec(1, 2)
    req = make_request(graph, M4, cluster, mode="enumerate")
    kw = dict(max_solutions=2, tolerance=0.5)
    runs = []
    body = enumerate_mod._branch_and_bound

    def spy(*args, **kwargs):
        runs.append(kwargs["tie_cut"])
        return body(*args, **kwargs)

    with mock.patch.object(enumerate_mod, "_branch_and_bound", spy):
        found = _run(search_schedules, req, WARM, **kw)
    assert runs == [True, False]
    reference = _run(oracle.search_schedules, req, WARM, **kw)
    assert found[-1] == reference[-1]  # the kept set: what the cut alone breaks
    assert found == reference  # the rerun is the uncut tree
