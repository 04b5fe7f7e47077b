"""Differential tests: the search body vs. the one it replaced.

``repro.core.enumerate.search_schedules`` was rewritten so that a node costs
what it changes (running maximum passed down, interned signatures, memoized
transfer delays, plain rows until a leaf is kept).  It claims the *same
answers*: every float of every member of S, in the same order, and the same
L and bounds.  The replaced body is kept verbatim in
``search_reference_oracle.py``; these tests compare the two with
``float.hex()`` on the tracker, the frozen workload datasets and seeded
random DAGs, across cluster shapes, communication models, ε, the
materialization cap and both settings of the oracle switches.

The tree is the same too until the kept set fills: from there the exact
search cuts the ties it could no longer keep.  So a run whose set never
fills matches the oracle on every counter, and one whose set fills matches
it on L, both bounds and every kept member, explores no more nodes and
counts |S| up to the cap (``_compare``).

``latency_slack > 0`` is compared with a cap that never fills: a full set
under slack is the one place the new body differs on purpose (it keeps a
latency-L member; see ``test_enumerate.py``).
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import search_schedules
from repro.core.parallel import incumbent_of, make_request
from repro.core.schedule import IterationSchedule
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


def oracle_search(problem, state, cluster, comm=None, **kw):
    """The oracle's result, and whether its kept set ever held the cap.

    The oracle names every leaf it builds ``opt[n]``, n the set's size
    before the leaf goes in, and with the table on every leaf it builds
    goes in while there is room: ``opt[cap - 1]`` is the leaf that filled
    the set (the final renaming builds it again when the set ends full).
    With the table off a repeated key is built without going in, so the
    answer may be "filled" for a set that never filled — a weaker check,
    never a false failure.
    """
    cap = kw.get("max_solutions", 64)
    names: set[str] = set()

    def recording(*args, **kwargs):
        names.add(kwargs.get("name"))
        return IterationSchedule(*args, **kwargs)

    with mock.patch.object(oracle, "IterationSchedule", recording):
        result = oracle.search_schedules(problem, state, cluster, comm, **kw)
    return result, f"opt[{cap - 1}]" in names


def oracle_run(req, mode, **kw):
    """``_run`` of the oracle, and whether its kept set ever held the cap."""
    fills = [False]

    def search(*args, **kwargs):
        result, fills[0] = oracle_search(*args, **kwargs)
        return result

    return _run(search, req, mode, **kw), fills[0]


def _compare(found, reference, fills, cap):
    """The search's outcome against the oracle's under the tie cut's rule."""
    if not fills or isinstance(reference[0], type):
        assert found == reference
        return
    # latency, lower and root bound, ε and every kept member, bit for bit
    assert found[:3] + found[7:] == reference[:3] + reference[7:]
    assert found[3] <= reference[3]  # explored
    count, full_count = found[6], reference[6]
    assert count == full_count if full_count <= cap else cap <= count <= full_count


def _same(graph, state, cluster, comm=None, modes=(WARM, COLD),
          may_raise=False, **kw):
    """Both bodies on one problem; returns the new body's outcome per mode."""
    req = make_request(graph, state, cluster, comm, mode="enumerate")
    out = {}
    for mode in modes:
        out[mode] = _run(search_schedules, req, mode, **kw)
        reference, fills = oracle_run(req, mode, **kw)
        try:
            _compare(out[mode], reference, fills, kw.get("max_solutions", 64))
        except AssertionError as exc:
            raise AssertionError((graph.name, state, cluster, mode, kw)) from exc
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
    """One node short of the full tree both raise; at it both finish.

    The cap is above |S| so that the set never fills and the tree is the
    oracle's whole tree.  ``node_limit=0`` is not a budget but a bad
    setting, refused by name before any node (``test_parallel.py``).
    """
    graph, cluster = random_dag(5, 3, dp_prob=0.3), ClusterSpec(2, 4)
    cap = 100_000
    for mode in (WARM, COLD):
        full = _same(graph, M4, cluster, modes=(mode,), max_solutions=cap)[mode]
        explored = full[3]
        assert len(full[-1]) < cap
        assert _same(graph, M4, cluster, modes=(mode,), max_solutions=cap,
                     node_limit=explored)[mode] == full
        for limit in (explored - 1, explored // 2, 1):
            kind, message = _same(graph, M4, cluster, modes=(mode,),
                                  may_raise=True, max_solutions=cap,
                                  node_limit=limit)[mode]
            assert kind is ScheduleError and f"node_limit={limit}" in message
