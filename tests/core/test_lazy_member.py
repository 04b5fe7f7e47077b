"""Differential test: a member of S kept as the search's rows vs. an eager copy.

``search_schedules`` keeps each member of S as its own rows and builds the
member's ``Placement`` objects on the first read of ``placements``; step 3
(``PipelineSearch``) reads only its spans.  Over ``test_search_diff.py``'s
grid — the tracker, the frozen workload datasets and seeded random DAGs,
across cluster shapes, communication models, ε, slack and the cap, warm and
cold — every kept member must equal ``IterationSchedule(list(m.placements),
m.name)``: the same placements, ``canonical_key()``, ``float.hex()``
latency and ``validate`` verdict; a ``PipelineSearch`` built from the
unbuilt member must read the eager copy's spans and give the same
``best()`` period and shift; and a pickled unbuilt member (the ``solve_many``
pool path) must come back with the same placements.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import search_schedules
from repro.core.parallel import incumbent_of, make_request
from repro.core.pipeline import PipelineSearch
from repro.core.schedule import IterationSchedule
from repro.errors import InfeasibleSchedule, InvalidSchedule, ScheduleError
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommCost, CommModel
from repro.state import State
from repro.workloads import get_family, load_dataset

M4 = State(n_models=4)


def _placements(schedule):
    return [
        (p.task, p.procs, p.start.hex(), p.duration.hex(), p.variant)
        for p in schedule.placements
    ]


def _spans(search):
    return [(q, s.hex(), e.hex()) for q, s, e in search.spans]


def _verdict(schedule, request):
    try:
        schedule.validate(request.problem, request.state, request.cluster, request.comm)
    except InvalidSchedule as exc:
        return str(exc)
    return None


def _check_member(member, request):
    n_procs = request.cluster.total_processors
    copy = pickle.loads(pickle.dumps(member))
    lazy_search = PipelineSearch(member, n_procs)
    assert "placements" not in vars(member)  # the search and step 3 built none

    eager = IterationSchedule(list(member.placements), member.name)
    assert _placements(member) == _placements(eager)
    assert member.canonical_key() == eager.canonical_key()
    assert member.latency.hex() == eager.latency.hex()
    assert [p.task for p in member] == [p.task for p in eager]
    assert _verdict(member, request) == _verdict(eager, request)

    eager_search = PipelineSearch(eager, n_procs)
    assert _spans(lazy_search) == _spans(eager_search)
    lazy_best, eager_best = lazy_search.best(), eager_search.best()
    assert lazy_best.period.hex() == eager_best.period.hex()
    assert lazy_best.shift == eager_best.shift

    assert "placements" not in vars(copy)
    assert copy.name == member.name
    assert copy.latency.hex() == member.latency.hex()
    assert copy.canonical_key() == member.canonical_key()
    assert _placements(copy) == _placements(member)


def _check(graph, state, cluster, comm=None, cold=True, **kw):
    """Every member the search keeps on one problem, warm and cold."""
    request = make_request(graph, state, cluster, comm, mode="enumerate")
    flags = [dict(incumbent=incumbent_of(request)[0])]
    if cold:
        flags.append(dict(incumbent=None, dominance=False))
    for flag in flags:
        try:
            result = search_schedules(
                request.problem, state, cluster, comm, **flag, **kw
            )
        except (InfeasibleSchedule, ScheduleError):
            continue  # a bounded search may serve the fallback instead
        for member in result.schedules:
            _check_member(member, request)


def _comm_models(cluster):
    return {
        "free": None,
        "default": CommModel(cluster),
        "costly-intra": CommModel(
            cluster,
            intra_node=CommCost(latency=0.3, bandwidth=1e6),
            inter_node=CommCost(latency=0.05, bandwidth=1e7),
        ),
    }


@pytest.mark.parametrize("cluster", [ClusterSpec(2, 4), SINGLE_NODE_SMP(4)],
                         ids=["2x4", "smp4"])
@pytest.mark.parametrize("cap", [4, 64])
def test_tracker_every_state(cluster, cap):
    graph = build_tracker_graph()
    for state in TRACKER_STATES:
        _check(graph, state, cluster, max_solutions=cap)


@pytest.mark.parametrize("family", ["matmul", "fusion", "webinfer"])
def test_frozen_workload_instances(family):
    fam = get_family(family)
    for inst in load_dataset(family):
        if inst.expected_findings:
            continue  # deliberately unschedulable entries
        graph, cluster = fam.build_graph(inst), fam.cluster(inst)
        for state in fam.state_space(inst):
            _check(graph, state, cluster)
            _check(graph, state, cluster, cold=False, max_solutions=4)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 4)], ids=str)
@pytest.mark.parametrize("n_tasks", [4, 5, 6])
def test_random_dags(n_tasks, shape):
    cluster = ClusterSpec(*shape)
    comms = _comm_models(cluster)
    for seed in range(10):
        name = list(comms)[seed % 3]
        graph = random_dag(n_tasks, seed, dp_prob=0.3,
                           item_bytes=0 if name == "free" else 20_000)
        _check(graph, M4, cluster, comms[name], max_solutions=64)
        _check(graph, M4, cluster, comms[name], cold=False, max_solutions=4)


@pytest.mark.parametrize("comm", ["free", "default", "costly-intra"])
def test_every_comm_model_on_one_graph_set(comm):
    cluster = ClusterSpec(2, 2)
    for seed in range(10, 16):
        graph = random_dag(5, seed, dp_prob=0.3, item_bytes=50_000)
        _check(graph, M4, cluster, _comm_models(cluster)[comm])


@pytest.mark.parametrize("speeds", [(1.0, 2.0), (0.5, 1.0, 1.5)], ids=str)
def test_heterogeneous_node_speeds(speeds):
    cluster = ClusterSpec(len(speeds), 2, node_speeds=speeds)
    for seed in range(6):
        _check(random_dag(5, seed, dp_prob=0.3), M4, cluster)


def test_degraded_non_uniform_shape():
    cluster = ClusterSpec(2, 4).without_processor(5)
    for seed in range(6):
        _check(random_dag(5, seed, dp_prob=0.3), M4, cluster)


@pytest.mark.parametrize("cap", [4, 64])
def test_bounded_search(cap):
    for cluster in (ClusterSpec(2, 4), ClusterSpec(2, 2)):
        for seed in range(8):
            _check(random_dag(5, seed, dp_prob=0.3), M4, cluster,
                   bound_inflation=0.5, max_solutions=cap)
    graph = build_tracker_graph()
    for state in TRACKER_STATES:
        _check(graph, state, SINGLE_NODE_SMP(4), bound_inflation=0.5,
               max_solutions=cap)


def test_latency_slack():
    for cluster in (ClusterSpec(2, 2), SINGLE_NODE_SMP(3)):
        for seed in range(8):
            _check(random_dag(4, seed, dp_prob=0.3), M4, cluster,
                   latency_slack=0.25, max_solutions=100_000)
