"""Frozen pass-2 certificate: the oracle the per-entry verifier must match.

These are ``verify_solution`` (with its helpers) and ``schedule_in_flight``
as they stood before the warm path read each table's graph once: every
placement looked up through ``sched.placement``, each processor's node
asked of ``cluster.node_of`` per placement, each task's predecessors
rebuilt by ``graph.predecessors`` per entry, and each channel's producers
and consumers rebuilt by ``graph.producers`` / ``graph.consumers`` per
entry.  ``validate_conflict_free`` is ``PipelinedSchedule``'s method as it
stood then, checking iterations ``1 .. floor(L/II) + P + 1``; the one line
changed in ``verify_solution`` calls it instead of the live method, so the
S009 verdict is the old window's too.
``tests/analysis/test_verify_oracle.py`` runs both verifiers on the same
seeded mutations and requires identical findings.  Do not edit them.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.analysis.findings import AnalysisReport
from repro.core.enumerate import SearchProblem, static_lower_bound
from repro.core.schedule import ScheduleSolution
from repro.errors import InvalidSchedule
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["verify_solution", "schedule_in_flight", "validate_conflict_free"]

_EPS = 1e-9

#: Cost snapshots by ``(state, dp_cap)``.
Snapshots = dict


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
    cluster: ClusterSpec,
    placement,
    state: State,
    problem: Optional[SearchProblem],
) -> Optional[float]:
    """Model duration of ``placement``: variant duration over node speed.

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
    return found.duration / cluster.node_speeds[cluster.node_of(placement.primary)]


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
    loc = location or f"schedule:{sched.name}/state:{state!r}"
    snapshot = _snapshot_source(graph, state, snapshots)
    # S005-S008 read the costs under the cluster's own width cap.
    costs = snapshot(cluster.procs_per_node)

    # S001 — task-set equality.
    placed = {p.task for p in sched}
    missing = sorted(set(graph.task_names) - placed)
    extra = sorted(placed - set(graph.task_names))
    if missing:
        report.add("S001", loc, f"tasks never placed: {missing}")
    if extra:
        report.add("S001", loc, f"placed tasks unknown to the graph: {extra}")

    # S002 — processor range; placements out of range are excluded from the
    # geometric checks below (their node/speed is undefined).
    n_procs = cluster.total_processors
    in_range = []
    for p in sched:
        bad = [q for q in p.procs if not 0 <= q < n_procs]
        if bad:
            report.add(
                "S002",
                loc,
                f"{p.task!r} uses processor(s) {bad} outside 0..{n_procs - 1}",
            )
        else:
            in_range.append(p)

    # S003 — exclusivity per processor.
    by_proc: dict[int, list] = {}
    for p in in_range:
        for q in p.procs:
            by_proc.setdefault(q, []).append(p)
    for q, plist in sorted(by_proc.items()):
        plist.sort(key=lambda p: p.start)
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
        nodes = {cluster.node_of(q) for q in p.procs}
        if len(nodes) > 1:
            report.add(
                "S004",
                loc,
                f"{p.task!r} ({p.variant}) spans nodes {sorted(nodes)} "
                f"with procs {list(p.procs)}",
            )

    # S005 — precedence with communication delay.
    edge_costs = costs if costs is not None else graph
    for name in graph.task_names:
        if name not in sched:
            continue
        v = sched.placement(name)
        for pred in graph.predecessors(name):
            if pred not in sched:
                continue
            u = sched.placement(pred)
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
        expected = _expected_duration(graph, cluster, p, state, costs)
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
        validate_conflict_free(piped)
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


def schedule_in_flight(
    graph: TaskGraph, solution: ScheduleSolution
) -> dict[str, int]:
    """Schedule-derived live-item count per streaming channel.

    Item k of a channel is live from its producer's end until the last
    consumer's end, k*II later for each successive timestamp — the
    slip-free capacity bound M003 certificates quote, and the estimate
    ``P002`` gates on where nothing is proved.  Channels whose producer or
    consumers are missing from the schedule are omitted (malformed
    schedules are pass-2 findings).
    """
    out: dict[str, int] = {}
    sched = solution.iteration
    period = solution.period
    if period <= _EPS:
        return out
    for ch in graph.channels:
        if ch.static:
            continue
        prods = [t.name for t in graph.producers(ch.name)]
        cons = [t.name for t in graph.consumers(ch.name)]
        if not prods or not cons:
            continue
        if any(t not in sched for t in (*prods, *cons)):
            continue
        produced = min(sched.placement(p).end for p in prods)
        drained = max(sched.placement(c).end for c in cons)
        out[ch.name] = int((drained - produced + _EPS) / period) + 1
    return out


def validate_conflict_free(self, iterations: Optional[int] = None) -> None:
    """Check that no two iterations collide on any processor.

    Checks iteration 0 against iterations ``1..K`` where ``K`` covers
    the full overlap window; by periodicity this covers all pairs.  A
    zero-length placement occupies no processor time and cannot
    collide.  Iteration ``k`` is not instantiated: processor sets are
    bitmasks, iteration ``k``'s rotated by ``(k * shift) % P``, and the
    placement pairs sharing a processor are found once per rotation.
    """
    P = self.n_procs
    everywhere = (1 << P) - 1
    # (task, processor mask, start, duration); adding an iteration's
    # offset, 0.0 for iteration 0, turns a start of -0.0 into 0.0.
    rows = [
        (p.task, sum(1 << q for q in p.procs), p.start + 0.0, p.duration)
        for p in self.iteration.placements
        if p.duration > 0
    ]
    if not rows:
        return
    K = iterations
    if K is None:
        K = int(self.latency / self.period) + P + 1
    sharing: dict[int, list[tuple]] = {}  # rotation -> [(a, b, common mask)]
    for k in range(1, K + 1):
        r = (k * self.shift) % P
        pairs = sharing.get(r)
        if pairs is None:
            pairs = sharing[r] = []
            for a in rows:
                for b in rows:
                    common = a[1] & (b[1] << r | b[1] >> (P - r)) & everywhere
                    if common:
                        pairs.append((a, b, common))
        off = k * self.period
        for (a_task, _, a_start, a_dur), (b_task, _, b_base, b_dur), common in pairs:
            a_end = a_start + a_dur
            b_start = b_base + off
            b_end = b_start + b_dur
            if a_start < b_end - _EPS and b_start < a_end - _EPS:
                raise InvalidSchedule(
                    f"iterations 0 and {k} collide: {a_task!r} "
                    f"[{a_start:g},{a_end:g}) vs {b_task!r} "
                    f"[{b_start:g},{b_end:g}) on procs "
                    f"{[q for q in range(P) if common >> q & 1]}"
                )
