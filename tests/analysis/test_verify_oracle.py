"""The per-entry verifier against its frozen body: identical findings.

``verify_solution`` reads each table's graph once (predecessors kept on the
graph, each processor's node listed once per call, placements through the
schedule's own index) and ``schedule_in_flight`` reads the graph's kept
channel ends and the schedule's index; ``validate_conflict_free`` checks
iterations ``1 .. floor(L/II) + 1`` where it checked ``.. + P + 1``.
``schedverify_reference_oracle.py`` keeps all three as they were.  Every
case here runs both on the same solution — genuine, or with one seeded
defect — and requires the same findings: rule, location, text, severity
and order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import pytest

from repro.analysis import verify_solution
from repro.analysis.model import schedule_in_flight
from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import SearchProblem
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement, ScheduleSolution
from repro.errors import InvalidSchedule
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommModel
from repro.state import State, StateSpace
from repro.workloads import FAMILIES

from tests.analysis import schedverify_reference_oracle as oracle

MUTATIONS = (
    "none", "proc_out_of_range", "spans_nodes", "overlap", "wrong_variant", "other_variant",
    "shifted_start", "missing_task", "unknown_task", "ii_below_bound",
    "bad_certificate",
)


def _cases():
    """(name, graph, cluster, comm, solutions) — solved once per module."""
    tracker = build_tracker_graph()
    hetero = ClusterSpec(procs_by_node=[2, 3], node_speeds=[1.0, 1.5])
    out = []
    for label, cluster in (("2x4", ClusterSpec(2, 4)), ("smp4", SINGLE_NODE_SMP(4)),
                           ("hetero", hetero)):
        comm = CommModel(cluster) if label != "smp4" else None
        sols = [OptimalScheduler(cluster, comm=comm).solve(tracker, s)
                for s in TRACKER_STATES[:3]]
        out.append((f"tracker@{label}", tracker, cluster, comm, sols))
    for seed in (3, 4):
        dag = random_dag(6, seed=seed, dp_prob=0.4, item_bytes=4096)
        cluster = ClusterSpec(2, 2)
        comm = CommModel(cluster)
        sols = [OptimalScheduler(cluster, comm=comm).solve(dag, s)
                for s in StateSpace.range("n_models", 1, 2)]
        out.append((f"dag6-s{seed}", dag, cluster, comm, sols))
    for name in sorted(FAMILIES):
        fam = FAMILIES[name]
        inst = fam.generate(7)
        graph, cluster = fam.build_graph(inst), fam.cluster(inst)
        sols = [OptimalScheduler(cluster).solve(graph, s)
                for s in list(fam.state_space(inst))[:2]]
        out.append((name, graph, cluster, None, sols))
    return out


@pytest.fixture(scope="module")
def cases():
    return _cases()


def _rebuilt(sol: ScheduleSolution, placements, period=None) -> ScheduleSolution:
    """``sol`` with a new iteration; its pipelined form rebuilt around it
    when the constructor accepts that, the old one kept otherwise."""
    iteration = IterationSchedule(placements, name=sol.iteration.name)
    piped = sol.pipelined
    try:
        piped = PipelinedSchedule(iteration, period=period or piped.period,
                                  shift=piped.shift, n_procs=piped.n_procs,
                                  name=piped.name)
    except InvalidSchedule:
        pass
    return replace(sol, iteration=iteration, pipelined=piped)


def mutate(sol: ScheduleSolution, kind: str, cluster: ClusterSpec,
           rng: random.Random) -> ScheduleSolution:
    ps = list(sol.iteration.placements)
    i = rng.randrange(len(ps))
    p = ps[i]
    P = cluster.total_processors
    if kind == "none":
        return sol
    if kind == "proc_out_of_range":
        ps[i] = replace(p, procs=(P + rng.randrange(3),) + p.procs[1:])
    elif kind == "spans_nodes":
        ps[i] = replace(p, procs=(0, P - 1) if P > 1 else (0,))
    elif kind == "overlap":
        j = rng.randrange(len(ps))
        ps[i] = replace(p, procs=ps[j].procs[:1], start=ps[j].start)
    elif kind == "wrong_variant":
        ps[i] = replace(p, variant="dp99")
    elif kind == "other_variant":
        ps[i] = replace(p, variant="serial" if p.variant != "serial" else "dp2",
                        duration=p.duration * 0.5)
    elif kind == "shifted_start":
        ps[i] = replace(p, start=max(0.0, p.start + rng.choice((-1, 1)) * 0.37 * p.duration))
    elif kind == "missing_task":
        del ps[i]
        if not ps:
            return sol
    elif kind == "unknown_task":
        ps[i] = replace(p, task="ZZ-" + p.task)
    elif kind == "ii_below_bound":
        return _rebuilt(sol, ps, period=sol.pipelined.period * rng.uniform(0.1, 0.6))
    elif kind == "bad_certificate":
        cert = sol.certificate
        field, value = rng.choice([
            ("lower_bound", sol.latency * 2.0),
            ("root_bound", sol.latency * 3.0),
            ("gap_bound", -1.0),
            ("policy", "oracle"),
            ("epsilon", math.nan),
            ("policy", "bounded"),
        ])
        return replace(sol, certificate=replace(cert, **{field: value}))
    else:  # pragma: no cover - every kind is listed above
        raise AssertionError(kind)
    return _rebuilt(sol, ps)


def findings(report):
    return [(f.rule, f.location, f.message, f.severity) for f in report.findings]


def _snapshots(graph, cluster, sol):
    caps = {cluster.procs_per_node}
    if sol.certificate is not None and sol.certificate.dp_cap:
        caps.add(sol.certificate.dp_cap)
    return {(sol.state, cap): SearchProblem.from_graph(graph, sol.state, max_workers=cap)
            for cap in caps}


@pytest.mark.parametrize("kind", MUTATIONS)
def test_seeded_mutations_give_identical_findings(cases, kind):
    rng = random.Random(f"verify-oracle-{kind}")
    seen = set()
    for name, graph, cluster, comm, sols in cases:
        for sol, trial in itertools.product(sols, range(3)):
            bad = mutate(sol, kind, cluster, rng)
            for snapshots in (None, _snapshots(graph, cluster, bad)):
                live = verify_solution(bad, graph, cluster, comm=comm,
                                       location=name, snapshots=snapshots)
                frozen = oracle.verify_solution(bad, graph, cluster, comm=comm,
                                                location=name, snapshots=snapshots)
                assert findings(live) == findings(frozen), (name, kind, trial)
                seen.update(f.rule for f in live.findings)
    if kind == "none":
        assert not seen
    else:
        assert seen, f"{kind} seeded no defect anywhere"


@pytest.mark.parametrize("kind", MUTATIONS)
def test_in_flight_counts_match(cases, kind):
    rng = random.Random(f"in-flight-{kind}")
    for _name, graph, cluster, _comm, sols in cases:
        for sol in sols:
            bad = mutate(sol, kind, cluster, rng)
            expected = oracle.schedule_in_flight(graph, bad)
            assert schedule_in_flight(graph, bad) == expected


def _outcome(fn, *args):
    try:
        fn(*args)
    except InvalidSchedule as exc:
        return str(exc)
    return None


def _random_pipelined(rng: random.Random) -> PipelinedSchedule:
    """A feasible-looking iteration on P processors, under any (II, shift)."""
    P = rng.randint(1, 6)
    free = [0.0] * P
    placements = []
    for t in range(rng.randint(1, 8)):
        width = rng.randint(1, min(3, P))
        procs = tuple(rng.sample(range(P), width))
        start = max(free[q] for q in procs) + rng.choice((0.0, 0.0, rng.uniform(0, 1)))
        duration = rng.choice((0.0, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)))
        placements.append(Placement(f"t{t}", procs, start, duration))
        for q in procs:
            free[q] = start + duration
    iteration = IterationSchedule(placements)
    period = max(iteration.latency, 1e-3) * rng.choice(
        (rng.uniform(0.01, 1.2), rng.uniform(0.3, 1.0), 1.0, 0.5, 1 / 3))
    return PipelinedSchedule(iteration, period=period, shift=rng.randrange(P), n_procs=P)


def test_trimmed_collision_window_gives_the_same_verdict_and_message():
    rng = random.Random(2024)
    collided = clean = 0
    for _ in range(3000):
        sched = _random_pipelined(rng)
        expected = _outcome(oracle.validate_conflict_free, sched)
        assert _outcome(sched.validate_conflict_free) == expected
        if expected is None:
            clean += 1
        else:
            collided += 1
    assert collided > 300 and clean > 300


def test_the_last_iteration_that_starts_before_l_is_checked():
    """A collision at the largest k with k * II < L is found and named."""
    a = Placement("a", (0,), 0.0, 1.0)
    b = Placement("b", (0,), 2.5, 0.5)  # L = 3.0, idle gap [1, 2.5)
    for period, k in ((1.2, 2), (1.0, 2), (1.6, 1), (3.0, None), (4.5, None)):
        sched = PipelinedSchedule(IterationSchedule([a, b]), period=period, shift=0,
                                  n_procs=1)
        message = _outcome(sched.validate_conflict_free)
        assert message == _outcome(oracle.validate_conflict_free, sched)
        if k is None:
            assert message is None
        else:
            assert message.startswith(f"iterations 0 and {k} collide")
            assert k * period < sched.latency


def test_state_and_cluster_shape_do_not_leak_between_calls(cases):
    """One graph verified against two clusters in turn: each call's
    processor → node list is its own."""
    name, graph, _cluster, _comm, sols = cases[0]
    for cluster in (ClusterSpec(4, 2), ClusterSpec(procs_by_node=[1, 7]),
                    SINGLE_NODE_SMP(8)):
        for sol in sols:
            live = verify_solution(sol, graph, cluster, location=name)
            frozen = oracle.verify_solution(sol, graph, cluster, location=name)
            assert findings(live) == findings(frozen)
