"""Differential tests: the search body vs. the one it replaced.

``repro.core.enumerate.search_schedules`` was rewritten so that a node costs
what it changes (running maximum passed down, interned signatures, memoized
transfer delays, plain rows until a leaf is kept).  It claims the *same tree*
and the *same answers*: every prune decision, every counter, every float of
every member of S, in the same order.  The replaced body is kept verbatim in
``search_reference_oracle.py``; these tests compare the two with
``float.hex()`` on the tracker, the frozen workload datasets and seeded
random DAGs, across cluster shapes, communication models, ε, the
materialization cap and both settings of the oracle switches.

``latency_slack > 0`` is compared with a cap that never fills: a full set
under slack is the one place the new body differs on purpose (it keeps a
latency-L member; see ``test_enumerate.py``).
"""

from __future__ import annotations

import pytest

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import search_schedules
from repro.core.parallel import incumbent_of, make_request
from repro.errors import InfeasibleSchedule, ScheduleError
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommCost, CommModel
from repro.state import State
from repro.workloads import get_family, load_dataset

from . import search_reference_oracle as oracle

M4 = State(n_models=4)
#: (HEFT incumbent, dominance on) as every request runs — the bound is
#: ``incumbent_of(request)``'s, ``make_request`` carries none — and the cold
#: reference.
WARM, COLD = "warm", "cold"


def _fingerprint(result):
    return (
        result.latency.hex(), result.lower_bound.hex(), result.root_bound.hex(),
        result.explored, result.pruned_bound, result.pruned_dominance,
        result.optimal_count, result.bound_inflation,
        [
            (s.name, s.latency.hex(), [
                (p.task, p.procs, p.start.hex(), p.duration.hex(), p.variant)
                for p in s.placements
            ])
            for s in result.schedules
        ],
    )


def _run(search, req, mode, **kw):
    flags = (
        dict(incumbent=incumbent_of(req)[0]) if mode == WARM
        else dict(incumbent=None, dominance=False)
    )
    try:
        return _fingerprint(search(
            req.problem, req.state, req.cluster, req.comm, **flags, **kw
        ))
    except (InfeasibleSchedule, ScheduleError) as exc:
        return type(exc), str(exc)


def _same(graph, state, cluster, comm=None, modes=(WARM, COLD),
          may_raise=False, **kw):
    """Both bodies on one problem; returns the new body's outcome per mode."""
    req = make_request(graph, state, cluster, comm, mode="enumerate")
    out = {}
    for mode in modes:
        out[mode] = _run(search_schedules, req, mode, **kw)
        assert out[mode] == _run(oracle.search_schedules, req, mode, **kw), (
            graph.name, state, cluster, mode, kw
        )
        assert may_raise or not isinstance(out[mode][0], type), out[mode]
    return out


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
        _same(graph, state, cluster, max_solutions=cap)


@pytest.mark.parametrize("family", ["matmul", "fusion", "webinfer"])
def test_frozen_workload_instances(family):
    fam = get_family(family)
    for inst in load_dataset(family):
        if inst.expected_findings:
            continue  # deliberately unschedulable entries
        graph, cluster = fam.build_graph(inst), fam.cluster(inst)
        for state in fam.state_space(inst):
            _same(graph, state, cluster)
            _same(graph, state, cluster, modes=(WARM,), max_solutions=4)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 4)], ids=str)
@pytest.mark.parametrize("n_tasks", [4, 5, 6])
def test_random_dags(n_tasks, shape):
    cluster = ClusterSpec(*shape)
    comms = _comm_models(cluster)
    for seed in range(10):
        name = list(comms)[seed % 3]
        graph = random_dag(n_tasks, seed, dp_prob=0.3,
                           item_bytes=0 if name == "free" else 20_000)
        _same(graph, M4, cluster, comms[name], max_solutions=64)
        _same(graph, M4, cluster, comms[name], modes=(WARM,), max_solutions=4)


@pytest.mark.parametrize("comm", ["free", "default", "costly-intra"])
def test_every_comm_model_on_one_graph_set(comm):
    cluster = ClusterSpec(2, 2)
    for seed in range(10, 16):
        graph = random_dag(5, seed, dp_prob=0.3, item_bytes=50_000)
        _same(graph, M4, cluster, _comm_models(cluster)[comm])


@pytest.mark.parametrize("speeds", [(1.0, 2.0), (0.5, 1.0, 1.5)], ids=str)
def test_heterogeneous_node_speeds(speeds):
    cluster = ClusterSpec(len(speeds), 2, node_speeds=speeds)
    for seed in range(6):
        _same(random_dag(5, seed, dp_prob=0.3), M4, cluster)


def test_degraded_non_uniform_shape():
    cluster = ClusterSpec(2, 4).without_processor(5)
    for seed in range(6):
        _same(random_dag(5, seed, dp_prob=0.3), M4, cluster)


@pytest.mark.parametrize("cap", [4, 64])
def test_bounded_search_and_its_early_stop(cap):
    for cluster in (ClusterSpec(2, 4), ClusterSpec(2, 2)):
        for seed in range(8):
            _same(random_dag(5, seed, dp_prob=0.3), M4, cluster,
                  may_raise=True, bound_inflation=0.5, max_solutions=cap)
    graph = build_tracker_graph()
    for state in TRACKER_STATES:
        _same(graph, state, SINGLE_NODE_SMP(4), may_raise=True,
              bound_inflation=0.5, max_solutions=cap)


def test_latency_slack_with_a_cap_that_never_fills():
    for cluster in (ClusterSpec(2, 2), SINGLE_NODE_SMP(3)):
        for seed in range(8):
            out = _same(random_dag(4, seed, dp_prob=0.3), M4, cluster,
                        latency_slack=0.25, max_solutions=100_000)
            for fp in out.values():
                assert len(fp[-1]) < 100_000


def test_node_limit_raises_at_the_same_node():
    """One node short of the full tree both raise; at it both finish."""
    graph, cluster = random_dag(5, 3, dp_prob=0.3), ClusterSpec(2, 4)
    for mode in (WARM, COLD):
        full = _same(graph, M4, cluster, modes=(mode,))[mode]
        explored = full[3]
        assert _same(graph, M4, cluster, modes=(mode,), node_limit=explored)[mode] == full
        for limit in (explored - 1, explored // 2, 1, 0):
            kind, message = _same(graph, M4, cluster, modes=(mode,),
                                  may_raise=True, node_limit=limit)[mode]
            assert kind is ScheduleError and f"node_limit={limit}" in message
