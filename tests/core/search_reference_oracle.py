"""The search body ``repro.core.enumerate.search_schedules`` had before it was
rewritten to cost what a node changes — kept verbatim as the oracle.

Every explored node here re-hashes a ``frozenset`` of nested tuples, takes
``max`` over every placed task, builds a validated ``Placement`` for every
placement tried, asks ``comm.transfer_time`` for every (edge, src, dst) again
and builds an ``IterationSchedule`` + ``canonical_key`` for every leaf.
``tests/core/test_search_diff.py`` compares the rewritten body against this
one: ``float.hex()``-equal latency and bounds, equal counters, equal names,
order and placements of S.  The one intended difference — a full set under
``latency_slack > 0`` dropping every latency-L schedule — is pinned in
``test_enumerate.py`` and kept out of the differential grid.

Not a test module; do not edit the function.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.enumerate import EnumerationResult, SearchProblem, static_lower_bound
from repro.core.schedule import IterationSchedule, Placement
from repro.errors import InfeasibleSchedule, ScheduleError
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

_INCUMBENT_MARGIN = 1e-12


class _EarlyStop(Exception):
    """Internal: bounded search proved its incumbent within (1+ε) of L*."""


def search_schedules(
    problem: SearchProblem,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    *,
    max_solutions: int = 64,
    node_limit: int = 2_000_000,
    tolerance: float = 1e-9,
    latency_slack: float = 0.0,
    incumbent: Optional[float] = None,
    dominance: bool = True,
    bound_inflation: float = 0.0,
) -> EnumerationResult:
    """The branch-and-bound core, operating on a :class:`SearchProblem`.

    ``incumbent`` is an optional upper bound on L (a legal schedule's
    latency); it tightens pruning from the first node without affecting
    which schedules are ultimately collected.  ``dominance`` enables the
    transposition table: exact with respect to L and the full set S; when
    |S| exceeds ``max_solutions`` the *materialized subset* may differ
    from a run without it (both materialize some ``max_solutions``-sized
    subset of the same S).  These two are the oracle arguments — requests
    always run with the HEFT incumbent and the table on; passing
    ``incumbent=None, dominance=False`` here is the cold reference the
    differential tests (and an ablation) compare against.

    ``bound_inflation`` (ε > 0) turns the search into weighted
    branch-and-bound: every admissible lower bound is multiplied by
    ``1 + ε`` before the prune comparison.  A pruned subtree therefore
    proves ``lb > cutoff / (1 + ε)``, and since every cutoff the search
    ever uses is at least the final incumbent U, the true optimum
    satisfies ``L* > U / (1 + ε)`` whenever it was pruned away — i.e.
    ``U <= (1 + ε) L*``.  The search additionally stops at the first
    incumbent within ``(1 + ε)`` of the static root bound (the guarantee
    already holds; the rest of the tree cannot strengthen it).  At
    ε = 0 every comparison multiplies by exactly 1.0 and the early stop
    is disabled, so the search is bit-identical to the exact one.
    """
    if bound_inflation < 0.0:
        raise ScheduleError(
            f"bound_inflation must be >= 0, got {bound_inflation}"
        )
    t0 = time.perf_counter()
    order_names = problem.order_names
    if not order_names:
        return EnumerationResult(
            0.0,
            [IterationSchedule([], name="empty")],
            1,
            0,
            state,
            elapsed_s=time.perf_counter() - t0,
            bound_inflation=bound_inflation,
        )

    P = cluster.total_processors
    variants = problem.variants
    preds = problem.preds
    succs = problem.succs
    edge_bytes = problem.edge_bytes

    # Remaining-critical-path lower bound.  Durations in the bound are
    # divided by the fastest node speed so the bound stays admissible on
    # heterogeneous clusters.
    fastest = max(cluster.node_speeds)
    best_dur = {
        name: min(v.duration for v in vs) / fastest for name, vs in variants.items()
    }
    rem_cp: dict[str, float] = {}
    for name in reversed(order_names):
        tail = max((rem_cp[s] for s in succs[name]), default=0.0)
        rem_cp[name] = best_dur[name] + tail
    # Minimal processor-time a task can occupy (workers x wall time), for
    # the load half of the lower bound.  A w-wide variant holds w
    # processors for duration/speed wall seconds, so its work is at least
    # w * duration / fastest.
    min_work = {
        name: min(v.workers * v.duration for v in vs) / fastest
        for name, vs in variants.items()
    }

    # Communication helper (primary-processor to primary-processor).
    if comm is None:
        comm = CommModel.free(cluster)
    transfer_time = comm.transfer_time

    # Search state.
    free = [0.0] * P
    sum_free = [0.0]
    rem_work = [sum(min_work.values())]
    placed: dict[str, Placement] = {}
    n_unscheduled_preds = {name: len(preds[name]) for name in order_names}
    ready = sorted(n for n in order_names if n_unscheduled_preds[n] == 0)

    best_latency = [float("inf")]
    solutions: dict[tuple, tuple[float, IterationSchedule]] = {}
    optimal_count = [0]
    explored = [0]
    pruned_bound = [0]
    pruned_dominance = [0]

    nodes = cluster.nodes
    node_procs = [[p.index for p in cluster.node_processors(n)] for n in range(nodes)]
    node_proc_sets = [frozenset(ps) for ps in node_procs]
    node_speed = cluster.node_speeds
    procs_per_node = cluster.procs_per_node

    # Variant durations pre-resolved per node speed, and node-unplaceable
    # variants dropped once — both hoisted out of the placement loop.
    var_durs = {
        name: tuple(
            (v, tuple(v.duration / node_speed[n] for n in range(nodes)))
            for v in vs
            if v.workers <= procs_per_node
        )
        for name, vs in variants.items()
    }

    slack_factor = 1.0 + latency_slack
    # Weighted branch-and-bound: bounds are inflated by (1 + ε) before
    # every prune comparison.  At ε = 0 the factor is exactly 1.0 and
    # float multiplication by 1.0 is the identity, so the exact search
    # path is untouched bit for bit.
    infl = 1.0 + bound_inflation
    root_bound = static_lower_bound(problem, cluster)
    # Early cutoff (bounded mode only): an incumbent at or below
    # root_bound * (1 + ε) is already certified within ε of L*.
    stop_bound = (
        root_bound * infl + tolerance if bound_inflation > 0.0 else None
    )
    if incumbent is not None:
        inc_cutoff = (
            incumbent * (1.0 + _INCUMBENT_MARGIN) + _INCUMBENT_MARGIN
        ) * slack_factor + tolerance
    else:
        inc_cutoff = float("inf")

    # Transposition table: canonical signatures of partial placements
    # already expanded.  A partial placement set fully determines the
    # remaining subproblem (free times and ready sets are derivable from
    # it), so a repeat visit is an identical subtree.
    seen_states: set[frozenset] = set()
    placed_sig: dict[str, tuple] = {}

    def admit_threshold() -> float:
        """Latency below which a finished schedule joins the solution set."""
        return best_latency[0] * slack_factor + tolerance

    def prune_cutoff() -> float:
        """Bound for subtree pruning: best-so-far or the warm incumbent."""
        cut = best_latency[0] * slack_factor + tolerance
        return cut if cut < inc_cutoff else inc_cutoff

    def record_solution() -> None:
        lat = max(p.end for p in placed.values())
        if lat < best_latency[0] - tolerance:
            best_latency[0] = lat
            # Tightened threshold may evict previously admitted schedules.
            cutoff = admit_threshold()
            for key in [k for k, (l, _) in solutions.items() if l > cutoff]:
                del solutions[key]
            optimal_count[0] = sum(
                1 for l, _ in solutions.values() if l <= best_latency[0] + tolerance
            )
        if lat <= admit_threshold():
            sched = IterationSchedule(placed.values(), name=f"opt[{len(solutions)}]")
            key = sched.canonical_key()
            if key not in solutions:
                if lat <= best_latency[0] + tolerance:
                    optimal_count[0] += 1
                if len(solutions) < max_solutions:
                    solutions[key] = (lat, sched)
        if stop_bound is not None and best_latency[0] <= stop_bound:
            raise _EarlyStop

    def lower_bound(current_max_end: float) -> float:
        """Admissible bound on the best completed latency below this node.

        Two halves, both exact lower bounds:

        * **critical path** — earliest-start estimates propagated through
          every unplaced task (placed predecessors contribute their actual
          finish, unplaced ones their fastest duration), plus the task's
          remaining chain;
        * **load** — all remaining work lands after each processor's
          current free time, so ``P * latency >= sum(free) + remaining
          minimal work``.
        """
        lb = current_max_end
        est_b: dict[str, float] = {}
        for name in order_names:
            if name in placed:
                continue
            est = 0.0
            for p in preds[name]:
                pl = placed.get(p)
                if pl is not None:
                    if pl.end > est:
                        est = pl.end
                else:
                    cand = est_b[p] + best_dur[p]
                    if cand > est:
                        est = cand
            est_b[name] = est
            path = est + rem_cp[name]
            if path > lb:
                lb = path
        if rem_work[0] > 0.0:
            load = (sum_free[0] + rem_work[0]) / P
            if load > lb:
                lb = load
        return lb

    def candidate_nodes() -> list[int]:
        """One representative node per identical (free-times, speed) class."""
        seen: set[tuple] = set()
        out: list[int] = []
        for n in range(nodes):
            key = (tuple(sorted(free[p] for p in node_procs[n])), node_speed[n])
            if key not in seen:
                seen.add(key)
                out.append(n)
        return out

    def place_and_recurse(name: str, ready_rest: list[str]) -> None:
        data_ready_base = [(p, placed[p].end, placed[p].primary) for p in preds[name]]
        pred_primaries = sorted({pprimary for _, _, pprimary in data_ready_base})
        rem = rem_cp[name]
        # Loop-invariant across variants and placement choices: the free
        # profile only changes inside deeper recursion (and is restored),
        # so candidate nodes and per-node processor orders are computed
        # once per ready-task expansion.
        cand_nodes = candidate_nodes()
        sorted_procs = {
            node: sorted(node_procs[node], key=lambda p: (free[p], p))
            for node in cand_nodes
        }
        for var, durs in var_durs[name]:
            w = var.workers
            for node in cand_nodes:
                procs_here = sorted_procs[node]
                if w > len(procs_here):
                    continue
                # Candidate processor sets for this node: the w earliest-free
                # processors (optimal when communication is tier-uniform),
                # plus — for serial placements — each predecessor's own
                # processor, where the transfer is free (the same-proc tier
                # can beat earlier availability under expensive intra-node
                # communication).
                choices = [tuple(procs_here[:w])]
                if w == 1:
                    for pp in pred_primaries:
                        if pp in node_proc_sets[node] and (pp,) not in choices:
                            choices.append((pp,))
                dur = durs[node]
                for chosen in choices:
                    _try_placement(name, var, dur, chosen, data_ready_base,
                                   ready_rest, rem)

    def _try_placement(name, var, dur, chosen, data_ready_base, ready_rest, rem):
        primary = chosen[0]
        est = max((free[p] for p in chosen), default=0.0)
        for pred, pend, pprimary in data_ready_base:
            delay = transfer_time(edge_bytes[(pred, name)], pprimary, primary)
            est = max(est, pend + delay)
        cutoff = prune_cutoff()
        # Lower bound, part 1: this task's own remaining chain from est.
        if (est + rem) * infl > cutoff:
            pruned_bound[0] += 1
            return
        end = est + dur
        saved = [free[p] for p in chosen]
        # Lower bound, part 2 (load): committing this placement raises each
        # chosen processor's free time to `end`; all remaining work can only
        # land after the free times, so P * latency >= sum(free) + the
        # minimal processor-time of the still-unplaced tasks.  This is what
        # prices out inefficient data-parallel variants and idle-inducing
        # placements early.
        new_sum = sum_free[0] - sum(saved) + end * len(chosen)
        new_rem = rem_work[0] - min_work[name]
        if (new_sum + new_rem) / P * infl > cutoff:
            pruned_bound[0] += 1
            return
        placement = Placement(name, chosen, est, dur, variant=var.label)
        old_sum, old_rem = sum_free[0], rem_work[0]
        for p in chosen:
            free[p] = end
        sum_free[0] = new_sum
        rem_work[0] = new_rem
        placed[name] = placement
        placed_sig[name] = (name, chosen, round(est, 12), round(dur, 12), var.label)
        newly_ready = []
        for s in succs[name]:
            n_unscheduled_preds[s] -= 1
            if n_unscheduled_preds[s] == 0:
                newly_ready.append(s)
        next_ready = sorted(ready_rest + newly_ready)
        recurse(next_ready)
        for s in succs[name]:
            n_unscheduled_preds[s] += 1
        del placed[name]
        del placed_sig[name]
        for p, t in zip(chosen, saved):
            free[p] = t
        sum_free[0], rem_work[0] = old_sum, old_rem

    def recurse(ready_now: list[str]) -> None:
        explored[0] += 1
        if explored[0] > node_limit:
            raise ScheduleError(
                f"enumeration exceeded node_limit={node_limit}; "
                "reduce variants or raise the limit"
            )
        if dominance and placed_sig:
            sig = frozenset(placed_sig.values())
            if sig in seen_states:
                pruned_dominance[0] += 1
                return
            seen_states.add(sig)
        if not ready_now:
            if len(placed) == len(order_names):
                record_solution()
            return
        current_max = max((pl.end for pl in placed.values()), default=0.0)
        if lower_bound(current_max) * infl > prune_cutoff():
            pruned_bound[0] += 1
            return
        for i, name in enumerate(ready_now):
            place_and_recurse(name, ready_now[:i] + ready_now[i + 1 :])

    try:
        recurse(ready)
    except _EarlyStop:
        pass
    if not solutions:
        raise InfeasibleSchedule(
            f"no legal schedule for graph {problem.graph_name!r} on {cluster!r}"
        )
    ranked = sorted(solutions.values(), key=lambda pair: (pair[0], pair[1].canonical_key()))
    ordered = [
        IterationSchedule(s.placements, name=f"opt[{i}]")
        for i, (_lat, s) in enumerate(ranked)
    ]
    # Certified lower bound on L*: an exact search proves its own latency
    # optimal; a bounded one proves L* > U / (1 + ε) by the pruning
    # argument above (never weaker than the static root bound).
    if bound_inflation > 0.0:
        cert_lb = max(root_bound, best_latency[0] / infl)
    else:
        cert_lb = best_latency[0]
    return EnumerationResult(
        latency=best_latency[0],
        schedules=ordered,
        optimal_count=optimal_count[0],
        explored=explored[0],
        state=state,
        elapsed_s=time.perf_counter() - t0,
        pruned_bound=pruned_bound[0],
        pruned_dominance=pruned_dominance[0],
        lower_bound=cert_lb,
        root_bound=root_bound,
        bound_inflation=bound_inflation,
    )
