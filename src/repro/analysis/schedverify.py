"""Pass 2: schedule and table verification (rules ``S001``-``S013``).

The verifier re-derives every claim a schedule artifact makes from first
principles — placement legality against the cluster shape, precedence
feasibility under the communication model, per-placement durations from
the task cost models, and the latency ``L`` itself — so a passing report
is a *certificate* that the off-line optimizer's output is real, not just
internally consistent.

Table-level checks add totality: every state of the state space has a
schedule-table entry (``S010``), every pair of covered states has a
resolvable transition (``S011``), and every single-node-failure shape has
a failover entry (``S012``).

Every cost an entry's rules read — edge bytes (``S005``), variant
durations (``S006``/``S007``), the critical-path bound (``S008``) and the
static root bound (``S013``) — comes from one cost snapshot, a
:class:`~repro.core.enumerate.SearchProblem`: the same evaluation of the
graph's cost callables that the solve request digested.  A table build
hands in the snapshots its requests already hold (``snapshots``, keyed by
``(state, dp_cap)``); a shape table's verification builds each one once for
the whole table; a standalone call builds each one it needs once, from the
graph (``_snapshot_source``).  Either way the bounds come out of the same
bodies over the same numbers, so every finding is the same float — and
the verifier still re-derives each bound itself, reading nothing the
search produced (schedules, L, S, incumbent).

What is fixed per table is derived once per table, not once per entry: a
task's predecessors are kept on the graph, an entry's placements are read
through the schedule's own task index, each processor's node is listed
once per call, and a shape table's reachable shapes are enumerated once.
``tests/analysis/schedverify_reference_oracle.py`` keeps the body this
replaced; ``tests/analysis/test_verify_oracle.py`` requires the same
findings, in the same order, from both.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional

from repro.analysis.findings import AnalysisReport
from repro.core.enumerate import SearchProblem, static_lower_bound
from repro.core.optimal import ScheduleSolution
from repro.core.table import ScheduleTable
from repro.core.transition import DrainTransition, TransitionEffect, TransitionPolicy
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["verify_solution", "verify_schedule_table", "verify_shape_table"]

_EPS = 1e-9

#: Cost snapshots by ``(state, dp_cap)`` — what ``ScheduleTable.build``'s
#: requests computed (``request.problem`` under ``(state, request.dp_cap)``).
Snapshots = Mapping[tuple[State, int], SearchProblem]


_start = attrgetter("start")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _build_snapshot(graph: TaskGraph, state: State, cap: int) -> Optional[SearchProblem]:
    """The cost snapshot of ``(state, cap)``, or ``None`` when the graph
    cannot be snapshotted — graph-level faults (cycles, undeclared channels,
    a raising cost model) are pass-1 findings, and the rules that need the
    snapshot skip."""
    try:
        return SearchProblem.from_graph(graph, state, max_workers=cap)
    except Exception:
        return None


class _TableSnapshots(dict):
    """Snapshots for a whole table: each ``(state, cap)`` built from the
    graph on first ask and kept for every later entry that asks."""

    def __init__(self, graph: TaskGraph) -> None:
        super().__init__()
        self._graph = graph

    def __contains__(self, key: object) -> bool:
        return True  # any key is built on demand

    def __missing__(self, key: tuple[State, int]) -> Optional[SearchProblem]:
        state, cap = key
        self[key] = snapshot = _build_snapshot(self._graph, state, cap)
        return snapshot


def _snapshot_source(
    graph: TaskGraph, state: State, snapshots: Optional[Snapshots]
) -> Callable[[int], Optional[SearchProblem]]:
    """``cap -> snapshot`` for one entry: handed in, else built once here
    (``None`` when the graph cannot be snapshotted)."""
    built: dict[int, Optional[SearchProblem]] = {}

    def snapshot(cap: int) -> Optional[SearchProblem]:
        if snapshots is not None and (state, cap) in snapshots:
            return snapshots[(state, cap)]
        if cap not in built:
            built[cap] = _build_snapshot(graph, state, cap)
        return built[cap]

    return snapshot


def _critical_path(problem: SearchProblem) -> float:
    """``TaskGraph.critical_path(use_best_variants=True)`` over a snapshot.

    Same topological order, same predecessor order, same best variant
    (fewest workers on a duration tie), same sums — the same float.
    """
    dist: dict[str, float] = {}
    for name in problem.order_names:
        base = max((dist[p] for p in problem.preds[name]), default=0.0)
        best = min(problem.variants[name], key=lambda v: (v.duration, v.workers))
        dist[name] = base + best.duration
    return max(dist.values(), default=0.0)


def _expected_duration(
    graph: TaskGraph,
    speed: float,
    placement,
    state: State,
    problem: Optional[SearchProblem],
) -> Optional[float]:
    """Model duration of ``placement``: variant duration over ``speed``,
    its primary processor's node speed.

    The variant comes from the snapshot; a label it does not hold (a width
    above the snapshot's cap, or no snapshot) is looked for among the
    task's uncapped variants.  Returns None when the cost model does not
    produce the label at all (reported as S006 by the caller).
    """
    def labelled(variants):
        return next((v for v in variants if v.label == placement.variant), None)

    found = None if problem is None else labelled(problem.variants[placement.task])
    if found is None:
        found = labelled(graph.task(placement.task).variants(state))
    if found is None:
        return None
    return found.duration / speed


def verify_solution(
    solution: ScheduleSolution,
    graph: TaskGraph,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    location: str = "",
    report: Optional[AnalysisReport] = None,
    snapshots: Optional[Snapshots] = None,
) -> AnalysisReport:
    """Re-verify one :class:`ScheduleSolution` against graph + cluster.

    ``comm`` must be the model the schedule was built with; ``None`` checks
    precedence without communication delays (a weaker but still sound
    check, since delays only tighten the constraint).  ``snapshots`` are
    cost snapshots the caller already holds, by ``(state, dp_cap)``; any
    this entry needs and is not handed is built here, once.
    """
    report = report if report is not None else AnalysisReport()
    state = solution.state
    sched = solution.iteration
    by_task = sched._by_task  # task -> placement
    loc = location or f"schedule:{sched.name}/state:{state!r}"
    snapshot = _snapshot_source(graph, state, snapshots)
    # S005-S008 read the costs under the cluster's own width cap.
    costs = snapshot(cluster.procs_per_node)
    node_of = [proc.node for proc in cluster.processors]  # by processor index

    # S001 — task-set equality.
    task_names = graph.task_names
    missing = sorted(set(task_names).difference(by_task))
    extra = sorted(set(by_task).difference(task_names))
    if missing:
        report.add("S001", loc, f"tasks never placed: {missing}")
    if extra:
        report.add("S001", loc, f"placed tasks unknown to the graph: {extra}")

    # S002 — processor range; placements out of range are excluded from the
    # geometric checks below (their node/speed is undefined).
    n_procs = cluster.total_processors
    in_range = []
    for p in sched.placements:
        if max(p.procs) < n_procs:  # a Placement holds no negative processor
            in_range.append(p)
            continue
        bad = [q for q in p.procs if not 0 <= q < n_procs]
        report.add(
            "S002",
            loc,
            f"{p.task!r} uses processor(s) {bad} outside 0..{n_procs - 1}",
        )

    # S003 — exclusivity per processor.
    by_proc: dict[int, list] = {}
    for p in in_range:
        for q in p.procs:
            by_proc.setdefault(q, []).append(p)
    for q, plist in sorted(by_proc.items()):
        plist.sort(key=_start)
        for a, b in zip(plist, plist[1:]):
            if b.start < a.end - _EPS:
                report.add(
                    "S003",
                    loc,
                    f"processor {q}: {a.task!r} [{a.start:g},{a.end:g}) overlaps "
                    f"{b.task!r} [{b.start:g},{b.end:g})",
                )

    # S004 — data-parallel placements stay inside one SMP node.
    for p in in_range:
        if len(p.procs) == 1:
            continue
        nodes = {node_of[q] for q in p.procs}
        if len(nodes) > 1:
            report.add(
                "S004",
                loc,
                f"{p.task!r} ({p.variant}) spans nodes {sorted(nodes)} "
                f"with procs {list(p.procs)}",
            )

    # S005 — precedence with communication delay.
    edge_costs = costs if costs is not None else graph
    for name in task_names:
        v = by_task.get(name)
        if v is None:
            continue
        for pred in graph.predecessors(name):
            u = by_task.get(pred)
            if u is None:
                continue
            delay = 0.0
            if comm is not None:
                try:
                    nbytes = edge_costs.comm_bytes(pred, name, state)
                    delay = comm.transfer_time(nbytes, u.primary, v.primary)
                except Exception:
                    delay = 0.0  # size-model faults are pass-1 findings (G007)
            if v.start < u.end + delay - _EPS:
                report.add(
                    "S005",
                    loc,
                    f"{name!r} starts at {v.start:g} but {pred!r} ends at "
                    f"{u.end:g} (+{delay:g}s comm)",
                )

    # S006/S007 — re-derive durations from the cost model, then latency L.
    rederived_latency = 0.0
    rederivable = True
    for p in in_range:
        if p.task not in graph:
            continue
        speed = cluster.node_speeds[node_of[p.primary]]
        expected = _expected_duration(graph, speed, p, state, costs)
        if expected is None:
            report.add(
                "S006",
                loc,
                f"{p.task!r} claims variant {p.variant!r} which the cost "
                f"model does not produce in {state!r}",
            )
            rederivable = False
            continue
        if not _close(expected, p.duration):
            report.add(
                "S006",
                loc,
                f"{p.task!r} ({p.variant}) lasts {p.duration:g}s but the "
                f"cost model says {expected:g}s",
            )
        rederived_latency = max(rederived_latency, p.start + expected)
    if rederivable and not _close(rederived_latency, solution.latency):
        report.add(
            "S007",
            loc,
            f"claimed latency L={solution.latency:g}s but re-derivation "
            f"from the cost model gives {rederived_latency:g}s",
        )

    # S008 — the critical-path certificate: L can never beat the bound.
    try:
        bound = 0.0
        if costs is not None:
            bound = _critical_path(costs) / max(cluster.node_speeds)
    except Exception:
        bound = 0.0  # graph-level faults are pass-1 findings
    if solution.latency < bound - max(_EPS, 1e-9 * bound):
        report.add(
            "S008",
            loc,
            f"claimed latency {solution.latency:g}s is below the "
            f"critical-path lower bound {bound:g}s",
        )

    # S009 — pipelined iterations must not collide, and the initiation
    # interval can never beat the processor-capacity bound.
    piped = solution.pipelined
    try:
        piped.validate_conflict_free()
    except Exception as exc:
        report.add("S009", loc, f"pipelined schedule self-collides: {exc}")
    if piped.n_procs > 0:
        area_bound = sched.busy_area() / piped.n_procs
        if piped.period < area_bound - max(_EPS, 1e-9 * area_bound):
            report.add(
                "S009",
                loc,
                f"II={piped.period:g}s is below the capacity bound "
                f"{area_bound:g}s ({piped.n_procs} procs)",
            )

    # S013 — the optimality-gap certificate (repro.approx ladder).  The
    # static root bound is re-derived independently, so a certificate that
    # claims a tighter bound (or a smaller gap) than the artifact supports
    # is an ERROR, never a silent quality loss.  Solutions without a
    # certificate (exact legacy artifacts) are exempt.
    cert = solution.certificate
    if cert is not None:
        tol = max(_EPS, 1e-9 * max(solution.latency, 1.0))
        if cert.policy not in ("exact", "bounded", "list"):
            report.add("S013", loc, f"unknown ladder policy {cert.policy!r}")
        elif not all(
            math.isfinite(v)
            for v in (cert.epsilon, cert.lower_bound, cert.root_bound, cert.gap_bound)
        ) or cert.epsilon < 0:
            report.add(
                "S013", loc, f"certificate carries non-finite or negative fields: {cert}"
            )
        else:
            problem = snapshot(cert.dp_cap or cluster.procs_per_node)
            try:
                root = None if problem is None else static_lower_bound(problem, cluster)
            except Exception:
                root = None  # graph-level faults are pass-1 findings
            if root is not None and cert.root_bound > root + tol:
                report.add(
                    "S013",
                    loc,
                    f"claimed static bound {cert.root_bound:g}s exceeds the "
                    f"re-derived bound {root:g}s",
                )
            if cert.lower_bound > solution.latency + tol:
                report.add(
                    "S013",
                    loc,
                    f"claimed lower bound {cert.lower_bound:g}s exceeds the "
                    f"achieved latency {solution.latency:g}s",
                )
            elif cert.lower_bound > 0:
                rederived_gap = max(0.0, solution.latency / cert.lower_bound - 1.0)
                if rederived_gap > cert.gap_bound + 1e-9:
                    report.add(
                        "S013",
                        loc,
                        f"claimed gap {cert.gap_bound:g} understates "
                        f"latency/lower_bound - 1 = {rederived_gap:g}",
                    )
            if cert.policy == "exact" and not _close(
                cert.lower_bound, solution.latency
            ):
                report.add(
                    "S013",
                    loc,
                    f"exact rung must certify zero gap, but lower bound "
                    f"{cert.lower_bound:g}s != latency {solution.latency:g}s",
                )
            if cert.policy == "bounded" and cert.gap_bound > cert.epsilon + 1e-9:
                report.add(
                    "S013",
                    loc,
                    f"bounded rung promised gap <= eps={cert.epsilon:g} but "
                    f"certifies {cert.gap_bound:g}",
                )
            if (
                cert.policy == "list"
                and root is not None
                and cert.lower_bound > root + tol
            ):
                report.add(
                    "S013",
                    loc,
                    f"list rung's lower bound {cert.lower_bound:g}s can only "
                    f"be the static bound {root:g}s",
                )
    return report


def verify_schedule_table(
    table: ScheduleTable,
    graph: TaskGraph,
    space: Iterable[State],
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    policy: Optional[TransitionPolicy] = None,
    report: Optional[AnalysisReport] = None,
    snapshots: Optional[Snapshots] = None,
) -> AnalysisReport:
    """Verify a full per-state table: every entry, totality, transitions.

    ``snapshots`` are passed on to :func:`verify_solution` for every entry.
    """
    report = report if report is not None else AnalysisReport()
    tloc = f"table:{graph.name}"
    states = list(space)

    # S010 — totality over the state space.
    for state in states:
        if state not in table:
            report.add(
                "S010",
                f"{tloc}/state:{state!r}",
                f"state {state!r} has no schedule-table entry",
            )

    # Per-entry certificates.
    for state in table.states():
        verify_solution(
            table.lookup(state),
            graph,
            cluster,
            comm=comm,
            location=f"{tloc}/state:{state!r}",
            report=report,
            snapshots=snapshots,
        )

    # S011 — every covered transition resolves to a sane effect.
    policy = policy or DrainTransition()
    for old in table.states():
        for new in table.states():
            if old == new:
                continue
            try:
                effect = policy.effect(table.lookup(old), table.lookup(new))
                if not isinstance(effect, TransitionEffect) or not math.isfinite(
                    effect.stall
                ):
                    raise ValueError(f"policy produced {effect!r}")
            except Exception as exc:
                report.add(
                    "S011",
                    f"{tloc}/transition:{old!r}->{new!r}",
                    f"transition {old!r} -> {new!r} unresolvable: {exc}",
                )
    return report


def verify_shape_table(
    table,
    graph: TaskGraph,
    base: ClusterSpec,
    comm: Optional[CommModel] = None,
    max_node_failures: int = 1,
    proc_failures: bool = True,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Verify a :class:`~repro.faults.failover.ShapeTable` against its base.

    Coverage (``S012``) is checked for every *node*-failure shape reachable
    within ``max_node_failures`` — the failover contract — while entries
    for processor-failure shapes are verified when present.
    """
    from repro.faults.failover import _reachable_shapes

    report = report if report is not None else AnalysisReport()
    tloc = f"shapetable:{graph.name}"

    # One enumeration: the node-failure shapes are its prefix.
    all_shapes, node_shapes = _reachable_shapes(base, max_node_failures, proc_failures)
    by_key = {spec.shape_key(): spec for spec in all_shapes}

    # S012 — failover coverage for every node-failure shape.
    for spec in all_shapes[:node_shapes]:
        if spec not in table:
            report.add(
                "S012",
                f"{tloc}/shape:{spec!r}",
                f"degraded shape {spec!r} has no failover entry",
            )

    # Per-entry certificates, against the same spec objects the builder
    # enumerated (shape keys are node-order canonical; verifying against a
    # reconstruction could permute nodes and misjudge locality).  Shapes
    # share their state and mostly their width cap: one snapshot each.
    snapshots = _TableSnapshots(graph)
    for key in table:
        spec = by_key.get(key)
        if spec is None:
            spec = ClusterSpec(
                procs_by_node=[p for p, _s in key], node_speeds=[s for _p, s in key]
            )
        sol = table.lookup(spec)
        shape = "+".join(str(p) for p, _s in key)
        verify_solution(
            sol,
            graph,
            spec,
            comm=comm,
            location=f"{tloc}/shape:[{shape}]/state:{sol.state!r}",
            report=report,
            snapshots=snapshots,
        )
    return report
