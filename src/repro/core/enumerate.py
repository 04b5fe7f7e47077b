"""Exhaustive enumeration of legal single-iteration schedules (Figure 6).

The paper: "the algorithm is not a heuristic... Our applications have a
very small number of tasks.  Even if we include the various data parallel
options for any given task, we still have a manageable number of options.
Since the resulting schedule will be operating for months, we can afford to
evaluate all legal schedules and choose the best one."

This module implements that evaluation as a deterministic branch-and-bound
over

* all precedence-compatible task orders (i.e. every way of picking the next
  ready task),
* every data-parallel variant of every task, and
* every processor placement, canonicalized by two safe symmetry reductions:
  within a node the ``w`` earliest-free processors are chosen (an exchange
  argument shows this never loses an optimal active schedule), and nodes in
  identical resource states are interchangeable so only one representative
  is branched on.

Schedules are *active*: each task starts as early as its resources and its
predecessors (plus communication delay) allow.  The search prunes with a
critical-path lower bound and returns the exact minimal latency **L**
together with the set **S** of distinct optimal schedules (capped at
``max_solutions`` for memory; the total count is still reported).

Three accelerations keep the off-line phase affordable at scale, all of
them semantics-preserving (same L, same set S up to canonical order):

* **warm start** — the HEFT-style list scheduler
  (:func:`repro.sched.listsched.heft_schedule`) provides an incumbent upper
  bound before the search begins, so the lower-bound prune bites from node
  1 instead of only after the first complete leaf;
* **transposition table** — different interleavings of independent tasks
  reach the *same* partial placement; each such state is explored once
  (the dominance cut keyed on the full canonicalized placement set is
  exact, so no member of S is lost);
* **hoisted inner loops** — candidate nodes, per-node processor orders and
  per-speed variant durations are computed once per ready-task expansion
  instead of once per placement attempt.

The first two are always on for every caller in ``src/``: the only place
they can be switched off is :func:`search_schedules` itself
(``incumbent=None``, ``dominance=False``), which is the cold reference of
``tests/core/test_enumerate_diff.py`` and where an ablation toggles them.

The search core (:func:`search_schedules`) operates on a pure-data
:class:`SearchProblem` snapshot in which every cost callable has already
been evaluated — the one cost table Figure 6 takes as input.  The list
scheduler reads the same snapshot, so a request evaluates each cost once;
problems pickle cheaply for the process-pool fan-out in
:mod:`repro.core.parallel` and digest stably for the on-disk cache in
:mod:`repro.core.cache`.  :func:`enumerate_schedules` is the
``(graph, state, cluster)`` convenience over that one path
(:func:`~repro.core.parallel.make_request` →
:func:`~repro.core.parallel.execute_request`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import InfeasibleSchedule, ScheduleError
from repro.core.schedule import IterationSchedule, Placement
from repro.graph.task import Variant
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = [
    "EnumerationResult",
    "SearchProblem",
    "enumerate_schedules",
    "search_schedules",
    "static_lower_bound",
]

_EPS = 1e-9
# Relative inflation applied to the warm-start incumbent before it is used
# as a pruning bound: the list scheduler accumulates the same schedule's
# finish times in a different order, so its float latency can sit a few
# ulps below what the search arithmetic would compute for that schedule.
_INCUMBENT_MARGIN = 1e-12


@dataclass
class EnumerationResult:
    """Outcome of :func:`enumerate_schedules`.

    Attributes
    ----------
    latency:
        The minimal single-iteration latency L.
    schedules:
        Distinct optimal :class:`IterationSchedule` objects (the set S),
        capped at the requested maximum.
    optimal_count:
        Total number of distinct optimal schedules found (>= len(schedules)).
    explored:
        Branch-and-bound nodes visited — a cost diagnostic.
    state:
        The application state the enumeration was run for.
    elapsed_s:
        Wall-clock seconds the search took.
    pruned_bound:
        Subtrees cut by the critical-path lower bound (including the
        warm-start incumbent bound).
    pruned_dominance:
        Subtrees cut by the transposition table (identical partial
        placements reached through a different task interleaving).
    lower_bound:
        Certified lower bound on the true optimum L*.  An exact search
        proves ``lower_bound == latency``; a bounded search
        (``bound_inflation`` > 0) proves ``L* >= lower_bound`` from the
        ε-pruning argument, so ``latency / lower_bound - 1`` bounds the
        realized optimality gap.
    root_bound:
        The static critical-path/load bound at the search root
        (:func:`static_lower_bound`) — independently re-derivable by the
        analyzer, which is what makes the gap claim checkable.
    bound_inflation:
        The ε the search ran with (0.0 = exact).
    """

    latency: float
    schedules: list[IterationSchedule]
    optimal_count: int
    explored: int
    state: State
    elapsed_s: float = 0.0
    pruned_bound: int = 0
    pruned_dominance: int = 0
    lower_bound: float = 0.0
    root_bound: float = 0.0
    bound_inflation: float = 0.0

    @property
    def pruned(self) -> int:
        """Total subtrees cut (bound + dominance)."""
        return self.pruned_bound + self.pruned_dominance

    @property
    def best(self) -> IterationSchedule:
        """A canonical representative of S (first in deterministic order)."""
        if not self.schedules:
            raise InfeasibleSchedule("enumeration produced no schedule")
        return self.schedules[0]


@dataclass
class SearchProblem:
    """A pure-data snapshot of one (graph, state) scheduling problem.

    Everything :func:`search_schedules` needs, with every cost callable
    already evaluated: task order, per-task variants, precedence, and
    per-edge byte counts.  The object is picklable (it carries no
    callables), so it can be shipped to worker processes
    (:mod:`repro.core.parallel`) and digested into a stable cache key
    (:mod:`repro.core.cache`).
    """

    graph_name: str
    order_names: tuple[str, ...]
    variants: dict[str, tuple[Variant, ...]]
    preds: dict[str, tuple[str, ...]]
    succs: dict[str, tuple[str, ...]]
    edge_bytes: dict[tuple[str, str], int]

    @classmethod
    def from_graph(
        cls, graph: TaskGraph, state: State, max_workers: Optional[int] = None
    ) -> "SearchProblem":
        """Evaluate all costs of ``graph`` under ``state`` into a snapshot.

        ``max_workers`` caps the data-parallel variants materialized; pass
        the resolved cap (callers default it to the cluster's
        processors-per-node, where data-parallel placements must fit).
        """
        graph.validate()
        order = tuple(graph.topo_order())
        variants = {
            name: tuple(graph.task(name).variants(state, max_workers=max_workers))
            for name in order
        }
        preds = {name: tuple(graph.predecessors(name)) for name in order}
        succs = {name: tuple(graph.successors(name)) for name in order}
        edge_bytes = {
            (p, name): graph.comm_bytes(p, name, state)
            for name in order
            for p in preds[name]
        }
        return cls(
            graph_name=graph.name,
            order_names=order,
            variants=variants,
            preds=preds,
            succs=succs,
            edge_bytes=edge_bytes,
        )

    def digest_payload(self) -> dict:
        """A JSON-safe, content-only description used for cache keys.

        Deliberately excludes the graph *name*: two graphs with identical
        structure and costs are the same scheduling problem.
        """
        return {
            "tasks": [
                {
                    "name": name,
                    "preds": list(self.preds[name]),
                    "variants": [
                        [v.workers, v.duration, v.label, v.chunks]
                        for v in self.variants[name]
                    ],
                }
                for name in self.order_names
            ],
            "edges": sorted(
                [src, dst, nbytes] for (src, dst), nbytes in self.edge_bytes.items()
            ),
        }


def static_lower_bound(problem: SearchProblem, cluster: ClusterSpec) -> float:
    """Admissible root bound on L* for ``problem`` on ``cluster``.

    The empty-placement specialization of the search's internal bound,
    exposed so certificates can be re-derived independently of any search
    artifact (rule ``S013``): the maximum of

    * the **critical path** — longest chain of fastest-variant durations,
      divided by the fastest node speed (admissible on heterogeneous
      clusters), communication priced at zero (admissible always); and
    * the **load** — minimal total processor-time of all tasks spread
      over every processor, ``sum(min workers x duration) / P``.

    Deterministic, O(V + E), and a function of content only — two calls
    with equal :meth:`SearchProblem.digest_payload` and equal cluster
    shapes return bit-identical bounds.
    """
    if not problem.order_names:
        return 0.0
    fastest = max(cluster.node_speeds)
    best_dur = {
        name: min(v.duration for v in vs) / fastest
        for name, vs in problem.variants.items()
    }
    rem_cp: dict[str, float] = {}
    for name in reversed(problem.order_names):
        tail = max((rem_cp[s] for s in problem.succs[name]), default=0.0)
        rem_cp[name] = best_dur[name] + tail
    bound = 0.0
    est: dict[str, float] = {}
    for name in problem.order_names:
        start = max(
            (est[p] + best_dur[p] for p in problem.preds[name]), default=0.0
        )
        est[name] = start
        path = start + rem_cp[name]
        if path > bound:
            bound = path
    load = (
        sum(
            min(v.workers * v.duration for v in vs)
            for vs in problem.variants.values()
        )
        / fastest
        / cluster.total_processors
    )
    return bound if bound >= load else load


def enumerate_schedules(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    max_workers: Optional[int] = None,
    max_solutions: int = 64,
    node_limit: int = 2_000_000,
    tolerance: float = 1e-9,
    latency_slack: float = 0.0,
) -> EnumerationResult:
    """Compute L and S for one application state.

    Parameters
    ----------
    graph:
        The validated macro-dataflow graph.
    state:
        Application state (fixes every cost).
    cluster:
        Nodes x processors (Figure 6's platform input).
    comm:
        Communication cost model; ``None`` means free communication.
    max_workers:
        Cap on data-parallel width (defaults to processors per node —
        data-parallel variants are placed within one node, where the
        splitter/worker channels live in shared memory).
    max_solutions:
        Cap on how many members of S are materialized.
    node_limit:
        Safety valve on branch-and-bound nodes; exceeding it raises
        :class:`~repro.errors.ScheduleError` rather than silently
        truncating the search.
    tolerance:
        Latency equality tolerance for membership in S.
    latency_slack:
        Relative slack for set membership: schedules with latency up to
        ``(1 + latency_slack) * L`` are collected (0.0 = exactly the
        paper's S).  Used by the latency/throughput frontier
        (:mod:`repro.core.frontier`) to trade latency for initiation
        interval the way [13] (Subhlok & Vondran) explores.
    """
    from repro.core.parallel import execute_request, make_request  # deferred: import cycle

    return execute_request(
        make_request(
            graph,
            state,
            cluster,
            comm,
            mode="enumerate",
            max_workers=max_workers,
            max_solutions=max_solutions,
            node_limit=node_limit,
            tolerance=tolerance,
            latency_slack=latency_slack,
        )
    )


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
