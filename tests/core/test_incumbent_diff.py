"""The incumbent moved from request time to the miss; the answer did not.

``make_request`` used to run ``heft_schedule`` and validate it against the
graph before any cache fetch; now ``execute_request`` computes it
(``incumbent_of``) and validates it against the request's own snapshot.
Over the grid below this file pins that

* ``IterationSchedule.validate`` gives the same verdict — passes, or raises
  ``InvalidSchedule`` with the same message — whether it reads the graph or
  the ``SearchProblem`` snapshot, on the HEFT schedule and on broken copies;
* the bound a miss searches under is ``float.hex()``-equal to the one the
  eager request carried (``eager_incumbent`` below is that code), so
  everything the search reports matches the kept reference body under
  ``test_search_diff.py``'s rule — every counter while the kept set never
  fills, L, the bounds and every kept member always (that file runs its
  whole warm grid — ε, caps, slack, node limits — under ``incumbent_of``'s
  bound);
* ``request_digest`` of every request is what the parent computed
  (``GRID_DIGEST``), so a cache the parent populated still hits.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.cache import request_digest
from repro.core.parallel import execute_request, incumbent_of, make_request
from repro.core.schedule import IterationSchedule, Placement
from repro.errors import InvalidSchedule, ReproError
from repro.graph.builders import random_dag
from repro.sched.listsched import heft_schedule
from repro.sim.cluster import ClusterSpec, SINGLE_NODE_SMP
from repro.sim.network import CommModel
from repro.state import State
from repro.workloads import get_family, load_dataset

from .test_search_diff import WARM, _comm_models, _compare, _fingerprint, oracle_run

#: SHA-256 over ``request_digest`` of every grid request, in grid order,
#: computed at the parent commit (eager incumbent).
GRID_DIGEST = "19dcce9762380ec499705926017a8d67744348cc387c7646d54f07c3054b3b54"


def _costly(cluster):
    return _comm_models(cluster)["costly-intra"]


def grid():
    """(graph, state, cluster, comm) — every case with and without a CommModel."""
    tracker = build_tracker_graph()
    for cluster in (ClusterSpec(2, 4), SINGLE_NODE_SMP(4)):
        for state in TRACKER_STATES:
            yield tracker, state, cluster, None
            yield tracker, state, cluster, CommModel(cluster)
    for family in ("matmul", "fusion", "webinfer"):
        fam = get_family(family)
        for inst in load_dataset(family):
            if inst.expected_findings:
                continue  # deliberately unschedulable entries
            graph, cluster = fam.build_graph(inst), fam.cluster(inst)
            for state in fam.state_space(inst):
                yield graph, state, cluster, None
                yield graph, state, cluster, _costly(cluster)
    cluster = ClusterSpec(2, 2)
    for n_tasks in (4, 5, 6):
        for seed in range(10):
            yield (random_dag(n_tasks, seed, dp_prob=0.3), State(n_models=4),
                   cluster, None)
            yield (random_dag(n_tasks, seed, dp_prob=0.3, item_bytes=20_000),
                   State(n_models=4), cluster, _costly(cluster))


GRID = list(grid())


def eager_incumbent(graph, request):
    """What ``make_request`` computed before the fetch, verbatim."""
    heft = None
    if request.problem.order_names:
        try:
            heft = heft_schedule(
                request.problem, request.state, request.cluster, request.comm
            )
            heft.validate(graph, request.state, request.cluster, request.comm)
        except (ReproError, AssertionError):
            heft = None
    return heft


def _verdict(schedule, against, state, cluster, comm):
    try:
        schedule.validate(against, state, cluster, comm)
    except InvalidSchedule as exc:
        return str(exc)
    return None


def _broken_copies(heft: IterationSchedule):
    """The HEFT schedule, then copies that break each of validate's checks."""
    yield "heft", heft
    rows = list(heft.placements)
    last = rows[-1]
    yield "start moved earlier", IterationSchedule(
        [*rows[:-1], Placement(last.task, last.procs, last.start / 2,
                               last.duration, last.variant)]
    )
    yield "task dropped", IterationSchedule(rows[:-1])
    yield "unknown task", IterationSchedule(
        [*rows, Placement("stranger", (0,), 0.0, 1.0)]
    )
    if len(rows) >= 2:
        a, b = rows[0], rows[-1]
        yield "two tasks on one processor", IterationSchedule(
            [Placement(b.task, a.procs, a.start, b.duration, b.variant)
             if p is b else p for p in rows]
        )
        yield "placements swapped", IterationSchedule(
            [Placement(p.task, (b if p is a else a).procs, p.start, p.duration,
                       p.variant) if p is a or p is b else p for p in rows]
        )
    yield "processor out of range", IterationSchedule(
        [Placement(last.task, (10_000,), last.start, last.duration, last.variant),
         *rows[:-1]]
    )


def test_validate_reads_the_snapshot_as_it_reads_the_graph():
    raised = set()
    for graph, state, cluster, comm in GRID:
        request = make_request(graph, state, cluster, comm)
        heft = heft_schedule(request.problem, state, cluster, comm)
        for label, schedule in _broken_copies(heft):
            on_graph = _verdict(schedule, graph, state, cluster, comm)
            on_snapshot = _verdict(schedule, request.problem, state, cluster, comm)
            assert on_graph == on_snapshot, (graph.name, state, label)
            if label == "heft":
                assert on_graph is None
            elif on_graph is not None:
                raised.add(on_graph.split()[0])
    # every check fired somewhere: task set, range, exclusivity, precedence
    assert raised >= {"schedule", "placement", "processor", "precedence"}


def test_a_miss_searches_under_the_bound_the_eager_request_carried():
    for graph, state, cluster, comm in GRID:
        request = make_request(graph, state, cluster, comm, mode="enumerate")
        eager = eager_incumbent(graph, request)
        bound, fallback = incumbent_of(request)
        assert fallback is None  # an exact request keeps no fallback
        assert (None if eager is None else eager.latency.hex()) == (
            None if bound is None else bound.hex()
        )
        found = execute_request(request)
        # oracle_run searches under incumbent_of(request)'s bound: ``bound``
        reference, fills = oracle_run(
            request, WARM,
            max_solutions=request.max_solutions, tolerance=request.tolerance,
        )
        _compare(_fingerprint(found), reference, fills, request.max_solutions)


@pytest.mark.parametrize("overrides", [
    dict(mode="list"), dict(bound_inflation=0.1),
], ids=["list", "bounded"])
def test_approximate_requests_get_the_validated_heft_fallback(overrides):
    for graph, state, cluster, comm in GRID[::7]:
        request = make_request(graph, state, cluster, comm, **overrides)
        eager = eager_incumbent(graph, request)
        bound, fallback = incumbent_of(request)
        assert bound.hex() == eager.latency.hex()
        assert fallback.canonical_key() == eager.canonical_key()


def test_request_digests_are_the_parents():
    digests = [
        request_digest(make_request(graph, state, cluster, comm, mode=mode))
        for graph, state, cluster, comm in GRID
        for mode in ("solve", "list")
    ]
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == GRID_DIGEST
