"""A HEFT-style static list scheduler — the heuristic alternative.

§3.4 notes the regime-switching framework is "totally orthogonal to the
approach to determining a good schedule for a single state ... whether the
schedules for each state were chosen optimally, via heuristics or via
hand-tuning."  This module is that heuristic option: classic
upward-rank list scheduling (HEFT) extended with the task's data-parallel
variants, producing a legal :class:`~repro.core.schedule.IterationSchedule`
quickly but without optimality guarantees.

Used as a comparison point in the benchmarks (how close does the heuristic
get to the exhaustive optimum, and how much cheaper is it?), as the
warm-start incumbent of every exact search and as rung 3 of the solver
ladder.  The heuristic reads the same
:class:`~repro.core.enumerate.SearchProblem` cost snapshot as the search:
:func:`heft_schedule` is the core, :func:`list_schedule` the
``(graph, state, cluster)`` convenience that builds the snapshot first.
"""

from __future__ import annotations

from typing import Optional

from repro.core.enumerate import SearchProblem
from repro.core.schedule import IterationSchedule, Placement
from repro.errors import InfeasibleSchedule
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["heft_schedule", "list_schedule"]


def list_schedule(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    max_workers: Optional[int] = None,
) -> IterationSchedule:
    """Greedy earliest-finish-time schedule with upward-rank priorities."""
    dp_cap = max_workers if max_workers is not None else cluster.procs_per_node
    problem = SearchProblem.from_graph(graph, state, max_workers=dp_cap)
    sched = heft_schedule(problem, state, cluster, comm)
    sched.validate(graph, state, cluster, comm)
    return sched


def heft_schedule(
    problem: SearchProblem,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
) -> IterationSchedule:
    """The HEFT core, on a cost snapshot (same leading arguments as the search).

    Reads no cost callable: every duration and byte count comes from
    ``problem``, so the off-line solve path, which holds only the snapshot
    (:func:`repro.core.parallel.incumbent_of`, on a cache miss), pays for
    the costs once.  The result is *not* validated here — both callers do
    that, against the graph or against the snapshot itself.
    """
    if comm is None:
        comm = CommModel.free(cluster)
    names = problem.order_names
    variants = problem.variants
    preds = problem.preds
    edge_bytes = problem.edge_bytes

    # Upward rank on best-variant durations (mean comm is folded into rank
    # via the worst-case tier, a standard HEFT simplification).
    best_dur = {n: min(v.duration for v in variants[n]) for n in names}
    rank: dict[str, float] = {}
    for n in reversed(names):
        tail = 0.0
        for s in problem.succs[n]:
            tail = max(tail, comm.worst_case(edge_bytes[(n, s)]) + rank[s])
        rank[n] = best_dur[n] + tail

    order = sorted(names, key=lambda n: (-rank[n], n))
    # Respect precedence: stable-insert any task after its predecessors.
    placed_order: list[str] = []
    remaining = list(order)
    while remaining:
        for i, n in enumerate(remaining):
            if all(p in placed_order for p in preds[n]):
                placed_order.append(n)
                del remaining[i]
                break
        else:  # pragma: no cover - graph.validate() excludes cycles
            raise AssertionError("no ready task; graph has a cycle?")

    free = [0.0] * cluster.total_processors
    node_procs = {
        nd: [p.index for p in cluster.node_processors(nd)] for nd in range(cluster.nodes)
    }
    placements: dict[str, Placement] = {}

    for n in placed_order:
        pred_primaries = sorted({placements[p].primary for p in preds[n]})
        best: Optional[Placement] = None
        for var in variants[n]:
            if var.workers > cluster.procs_per_node:
                continue
            for nd in range(cluster.nodes):
                procs_here = sorted(node_procs[nd], key=lambda p: (free[p], p))
                if var.workers > len(procs_here):
                    continue
                # Earliest-free processors, plus (for serial placements)
                # each predecessor's own processor — the free same-proc
                # transfer can beat earlier availability.
                choices = [tuple(procs_here[: var.workers])]
                if var.workers == 1:
                    for pp in pred_primaries:
                        if pp in node_procs[nd] and (pp,) not in choices:
                            choices.append((pp,))
                for chosen in choices:
                    dur = var.duration / cluster.node_speeds[nd]
                    est = max((free[p] for p in chosen), default=0.0)
                    for pred in preds[n]:
                        pp = placements[pred]
                        delay = comm.transfer_time(
                            edge_bytes[(pred, n)], pp.primary, chosen[0]
                        )
                        est = max(est, pp.end + delay)
                    cand = Placement(n, chosen, est, dur, variant=var.label)
                    if best is None or cand.end < best.end - 1e-12:
                        best = cand
        if best is None:
            raise InfeasibleSchedule(
                f"no node can host task {n!r} in {state!r} "
                f"(narrowest variant wider than every node)"
            )
        placements[n] = best
        for p in best.procs:
            free[p] = best.end

    return IterationSchedule(placements.values(), name="heft")
