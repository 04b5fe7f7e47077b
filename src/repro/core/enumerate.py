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
together with the set **S** of distinct optimal schedules (the first
``max_solutions`` in search order are kept, and |S| is counted up to the
cap).

Three accelerations keep the off-line phase affordable at scale, all of
them semantics-preserving (same L, same set S up to canonical order; the
third changes no node, prune or float — ``tests/core/test_search_diff.py``
holds the body it replaced as the oracle):

* **warm start** — the HEFT-style list scheduler
  (:func:`repro.sched.listsched.heft_schedule`) provides an incumbent upper
  bound before the search begins, so the lower-bound prune bites from node
  1 instead of only after the first complete leaf;
* **transposition table** — different interleavings of independent tasks
  reach the *same* partial placement; each such state is explored once
  (the dominance cut keyed on the full canonicalized placement set is
  exact, so no member of S is lost);
* **a node costs what it changes** — the running maximum end, sum(free),
  the remaining minimal work and the placed signature set are passed down
  rather than recomputed; each placement signature is interned once to a
  small int, so the transposition key is a ``frozenset`` of ints; the
  prune cut-off is a variable refreshed only when L improves (or the tie
  cut below tightens it); a transfer
  delay is asked of the communication model once per (edge, src, dst);
  candidate nodes and per-node processor orders are computed once per
  node, the successor ready list once per ready task; and a placed task is
  a plain row ``(end, procs, start, duration, variant, signature)``, the
  signature being the tuple the transposition table interns.  A leaf's
  key is its signatures in start order, which is the schedule's
  ``canonical_key``, and a kept leaf *is* its rows: an
  ``IterationSchedule`` that builds its ``Placement`` objects on the
  first read of its placements.  Step 3 reads only a member's spans, so
  only the members that reach ``PipelineSearch.best`` are ever built.
  A leaf that arrives while the set is full is counted without its key
  being built, and that is exact: it reached the record step, so the
  transposition table has just proved its signature set new, and the
  key is that same set in start order — it cannot be in the set
  already.  (With the table off — the cold oracle — nothing proves that,
  and every leaf's key is built and tested.)

The first two are always on for every caller in ``src/``: the only place
they can be switched off is :func:`search_schedules` itself
(``incumbent=None``, ``dominance=False``), which is the cold reference of
``tests/core/test_enumerate_diff.py`` and where an ablation toggles them.

**The tie cut.**  Once the kept set is full, the exact search (ε = 0, no
slack) stops looking for ties, so |S| is counted up to the cap, not in
full.  At slack 0 every member lies within ``tolerance`` of the current
best B, and a full set changes only when a leaf improves L, i.e. lies below
``B - tolerance``.  So the cutoff drops to ``B - tolerance``, raised by the
incumbent's relative margin so that an ulp of bound arithmetic cannot prune
such a leaf.  Every subtree this prunes holds only ties the set could not
keep, whose one effect was the count.  L, both bounds and the kept members
(names, order, every float) are those of the uncut search; ``explored``,
the prune counters and ``optimal_count`` can only fall.  A bounded or slack
search keeps the uncut tree: its members are not all ties of B.

The transposition table opens one window, and the search closes it by
rerunning.  A node inside a cut subtree is one the uncut search saw, so
where the uncut search later prunes it by dominance, the cut search may
explore it.  Its leaves all lie above ``B - tolerance``.  They matter only
if L has since improved to an L′ that admits them, ``L′ + tolerance >
B - tolerance``: an improvement by less than ``2·tolerance``.  Then such a
leaf could enter the set where the uncut search kept it out.  When an
improvement lands in that window the search reruns without the cut
(:class:`_Reopen`); the rerun is the uncut tree.  An improvement by
``2·tolerance`` or more closes the window: every leaf admitted from then on
is at most ``L′ + tolerance <= B - tolerance``, below every leaf of every
cut subtree, and a later cut at a lower B only lowers that line.  Without
the table nothing is pruned by dominance and both searches walk a revisited
subtree alike; the rerun rule is the same either way.

The search core (:func:`search_schedules`) operates on a pure-data
:class:`SearchProblem` snapshot in which every cost callable has already
been evaluated — the one cost table Figure 6 takes as input.  The list
scheduler reads the same snapshot, so a request evaluates each cost once;
problems digest stably for the on-disk cache in
:mod:`repro.core.cache`.  :func:`enumerate_schedules` is the
``(graph, state, cluster)`` convenience over that one path
(:func:`~repro.core.parallel.make_request` →
:func:`~repro.core.parallel.execute_request`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.errors import InfeasibleSchedule, ScheduleError
from repro.core.schedule import IterationSchedule
from repro.graph.task import Variant
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = [
    "EnumerationResult",
    "SearchProblem",
    "check_settings",
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
        the first ``max_solutions`` in search order.  Each holds the
        search's rows and builds its :class:`Placement` objects when its
        placements are first read; latency and ``canonical_key()`` need
        no build.
    optimal_count:
        Distinct optimal leaves the search reached (>= len(schedules)):
        |S| counted up to the cap — exactly |S| while |S| <=
        ``max_solutions``, at least ``max_solutions`` otherwise (the exact
        search stops looking for ties once the set is full).  A bounded
        or slack search counts every one it finds.
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
    per-edge byte counts.  The object carries no callables, so it
    digests into a stable cache key (:mod:`repro.core.cache`).
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

    # -- the three reads IterationSchedule.validate makes of a graph --------

    @property
    def task_names(self) -> list[str]:
        return list(self.order_names)

    def predecessors(self, task: str) -> list[str]:
        """As :meth:`TaskGraph.predecessors` (same names, same order)."""
        return list(self.preds[task])

    def comm_bytes(self, src: str, dst: str, state: State) -> int:
        """As :meth:`TaskGraph.comm_bytes`; ``state`` is the snapshot's own."""
        return self.edge_bytes[(src, dst)]

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


def check_settings(
    *,
    max_solutions: int,
    node_limit: int,
    tolerance: float,
    latency_slack: float,
    bound_inflation: float,
) -> None:
    """Refuse an out-of-range search setting by name.

    Raises :class:`~repro.errors.ScheduleError` ``"<name> must be ..."``:
    the caps must be at least 1, the tolerances and ε at least 0 (a NaN is
    refused too: every comparison with it is false, so it would switch a
    prune or the membership test off), and ε finite (an infinite one
    certifies nothing).  :func:`search_schedules` and
    :class:`~repro.core.parallel.SolveRequest` both call it.
    """
    for name, value in (("max_solutions", max_solutions), ("node_limit", node_limit)):
        if value < 1:
            raise ScheduleError(f"{name} must be >= 1, got {value}")
    for name, value in (
        ("tolerance", tolerance),
        ("latency_slack", latency_slack),
        ("bound_inflation", bound_inflation),
    ):
        if not value >= 0.0:
            raise ScheduleError(f"{name} must be >= 0, got {value}")
    if bound_inflation == float("inf"):
        raise ScheduleError("bound_inflation must be finite, got inf")


def _start_order(row: tuple) -> tuple[float, str]:
    """A search row's place in an :class:`IterationSchedule`: (start, task)."""
    return row[2], row[5][0]


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
        interval the way [13] (Subhlok & Vondran) explores.  When the
        within-slack set outgrows ``max_solutions``, a latency-L schedule
        displaces the worst member that is not one, so ``.best`` always
        has latency L.
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


class _Reopen(Exception):
    """Internal: L improved by less than 2·tolerance after a tie cut."""


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

    The exact search (ε = 0, no slack) also cuts the ties it can no longer
    keep once the set is full; see the module docstring for why that
    leaves L and the kept set unchanged, and for the one window where it
    reruns the search without the cut.
    """
    check_settings(
        max_solutions=max_solutions, node_limit=node_limit, tolerance=tolerance,
        latency_slack=latency_slack, bound_inflation=bound_inflation,
    )
    t0 = time.perf_counter()
    run = partial(
        _branch_and_bound, problem, state, cluster, comm,
        max_solutions=max_solutions, node_limit=node_limit,
        tolerance=tolerance, latency_slack=latency_slack,
        incumbent=incumbent, dominance=dominance,
        bound_inflation=bound_inflation,
    )
    try:
        result = run(tie_cut=bound_inflation == 0.0 and latency_slack == 0.0)
    except _Reopen:
        result = run(tie_cut=False)
    result.elapsed_s = time.perf_counter() - t0
    return result


def _branch_and_bound(
    problem: SearchProblem, state: State, cluster: ClusterSpec,
    comm: Optional[CommModel], *, max_solutions: int, node_limit: int,
    tolerance: float, latency_slack: float, incumbent: Optional[float],
    dominance: bool, bound_inflation: float, tie_cut: bool,
) -> EnumerationResult:
    """One run of :func:`search_schedules`' tree; ``tie_cut`` prunes ties
    a full set cannot keep, raising :class:`_Reopen` where that is inexact."""
    order_names = problem.order_names
    if not order_names:
        return EnumerationResult(
            0.0,
            [IterationSchedule([], name="empty")],
            1,
            0,
            state,
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

    # Communication (primary-processor to primary-processor).  A delay
    # depends only on (edge, src, dst), so each edge memoizes it:
    # ``delays[edge][src * P + dst]``, filled from ``transfer_time``.
    if comm is None:
        comm = CommModel.free(cluster)
    transfer_time = comm.transfer_time
    delays = {edge: [None] * (P * P) for edge in edge_bytes}

    # Search state.  A placed task is a plain row ``(end, procs, start,
    # duration, label, signature)``; what a node inherits unchanged — the running
    # maximum end, the signature set, sum(free) and the remaining minimal
    # work — is passed down, and only ``free`` is mutated and restored.
    n_tasks = len(order_names)
    free = [0.0] * P
    free_of = free.__getitem__
    placed: dict[str, tuple] = {}
    n_unscheduled_preds = {name: len(preds[name]) for name in order_names}
    ready = sorted(n for n in order_names if n_unscheduled_preds[n] == 0)

    best_latency = float("inf")
    solutions: dict[tuple, tuple[float, tuple]] = {}  # key -> (latency, rows)
    optimal_count = explored = pruned_bound = pruned_dominance = 0

    nodes = cluster.nodes
    node_procs = [[p.index for p in cluster.node_processors(n)] for n in range(nodes)]
    node_proc_sets = [frozenset(ps) for ps in node_procs]
    node_speed = cluster.node_speeds
    procs_per_node = cluster.procs_per_node

    # Per variant: label, width, and the duration (and its rounded form,
    # for the signature) on every node; node-unplaceable variants dropped.
    var_rows = {}
    for name, vs in variants.items():
        var_rows[name] = rows = []
        for v in vs:
            if v.workers <= procs_per_node:
                durs = [v.duration / node_speed[n] for n in range(nodes)]
                rows.append((v.label, v.workers, durs, [round(d, 12) for d in durs]))

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
    # Bound for subtree pruning: best-so-far (within slack) or the warm
    # incumbent, whichever is lower; refreshed when L improves and, under
    # the tie cut, when the set is full.
    cutoff = inc_cutoff
    # L - tolerance at the last tie cut: an improvement to within
    # 2·tolerance of that L is the window the cut cannot close.
    cut_floor = float("inf")

    # Transposition table: signature sets of partial placements already
    # expanded.  A partial placement set fully determines the remaining
    # subproblem (free times and ready sets are derivable from it), so a
    # repeat visit is an identical subtree.  Each placement signature
    # ``(task, procs, round(start, 12), round(duration, 12), variant)`` —
    # a schedule's canonical-key element — is interned to a small int.
    seen_states: set[frozenset] = set()
    sig_ids: dict[tuple, int] = {}

    def record_solution(lat: float) -> None:
        nonlocal best_latency, cutoff, optimal_count, cut_floor
        if lat < best_latency - tolerance:
            if lat + tolerance > cut_floor:
                raise _Reopen
            best_latency = lat
            # Tightened threshold may evict previously admitted schedules.
            admit = lat * slack_factor + tolerance
            cutoff = admit if admit < inc_cutoff else inc_cutoff
            for key in [k for k, (l, _) in solutions.items() if l > admit]:
                del solutions[key]
            optimal_count = sum(
                1 for l, _ in solutions.values() if l <= lat + tolerance
            )
        if lat <= best_latency * slack_factor + tolerance:
            optimal = lat <= best_latency + tolerance
            room = len(solutions) < max_solutions
            # A full set takes a latency-L leaf in place of its worst member
            # when that member is not one (under slack only: at slack 0
            # every member is within tolerance of L).
            worst = None
            if optimal and not room and latency_slack > 0.0:
                worst = max(solutions, key=lambda k: (solutions[k][0], k))
                if solutions[worst][0] <= best_latency + tolerance:
                    worst = None
            # With the table on a full set counts a leaf without its key:
            # the table has just proved its signature set new, and the key
            # is that set in start order.
            new = dominance and not room and worst is None
            if not new:
                rows = tuple(sorted(placed.values(), key=_start_order))
                key = tuple([row[5] for row in rows])
                new = key not in solutions
                if new and worst is not None:
                    del solutions[worst]
                if new and len(solutions) < max_solutions:
                    solutions[key] = (lat, rows)
            if new and optimal:
                optimal_count += 1
        if tie_cut and len(solutions) >= max_solutions:
            # Full at L: only a leaf below L - tolerance can change the set
            # now.  The cut keeps the incumbent's relative margin so an
            # ulp of bound arithmetic cannot prune such a leaf.
            tie = best_latency * (1.0 + _INCUMBENT_MARGIN) - tolerance
            if tie < cutoff:
                cutoff, cut_floor = tie, best_latency - tolerance
        if stop_bound is not None and best_latency <= stop_bound:
            raise _EarlyStop

    def lower_bound(lb: float, sum_free: float, rem_work: float) -> float:
        """Admissible bound on the best completed latency below this node.

        ``lb`` comes in as the node's maximum placed end.  Two halves, both
        exact lower bounds:

        * **critical path** — earliest-start estimates propagated through
          every unplaced task (placed predecessors contribute their actual
          finish, unplaced ones their fastest duration), plus the task's
          remaining chain;
        * **load** — all remaining work lands after each processor's
          current free time, so ``P * latency >= sum(free) + remaining
          minimal work``.
        """
        fin_b: dict[str, float] = {}
        for name in order_names:
            if name in placed:
                continue
            est = 0.0
            for p in preds[name]:
                row = placed.get(p)
                fin = row[0] if row is not None else fin_b[p]
                if fin > est:
                    est = fin
            fin_b[name] = est + best_dur[name]
            path = est + rem_cp[name]
            if path > lb:
                lb = path
        if rem_work > 0.0:
            load = (sum_free + rem_work) / P
            if load > lb:
                lb = load
        return lb

    def recurse(ready_now, max_end, sig, sum_free, rem_work) -> None:
        nonlocal explored, pruned_bound, pruned_dominance
        explored += 1
        if explored > node_limit:
            raise ScheduleError(
                f"enumeration exceeded node_limit={node_limit}; "
                "reduce variants or raise the limit"
            )
        if dominance and sig:
            if sig in seen_states:
                pruned_dominance += 1
                return
            seen_states.add(sig)
        if not ready_now:
            if len(placed) == n_tasks:
                record_solution(max_end)
            return
        if lower_bound(max_end, sum_free, rem_work) * infl > cutoff:
            pruned_bound += 1
            return
        # The free profile only changes inside deeper recursion (and is
        # restored), so one representative node per identical (free-times,
        # speed) class and each one's processors in (free, index) order are
        # computed once per node, for every ready task.
        cand_nodes = []
        classes: set[tuple] = set()
        for node in range(nodes):
            by_free = sorted(node_procs[node], key=free_of)
            cls = (tuple([free[p] for p in by_free]), node_speed[node])
            if cls not in classes:
                classes.add(cls)
                cand_nodes.append((node, by_free))
        for i, name in enumerate(ready_now):
            data_ready = [
                (placed[p][0], placed[p][1][0], delays[(p, name)], edge_bytes[(p, name)])
                for p in preds[name]
            ]
            pred_primaries = sorted({src for _, src, _, _ in data_ready})
            rem = rem_cp[name]
            new_rem = rem_work - min_work[name]
            # The ready list is re-sorted only when a successor became ready.
            next_ready = ready_now[:i] + ready_now[i + 1 :]
            newly_ready = False
            for s in succs[name]:
                n_unscheduled_preds[s] -= 1
                if n_unscheduled_preds[s] == 0:
                    next_ready.append(s)
                    newly_ready = True
            if newly_ready:
                next_ready.sort()
            for label, w, durs, durs12 in var_rows[name]:
                for node, by_free in cand_nodes:
                    if w > len(by_free):
                        continue
                    # Candidate processor sets for this node: the w earliest-free
                    # processors (optimal when communication is tier-uniform),
                    # plus — for serial placements — each predecessor's own
                    # processor, where the transfer is free (the same-proc tier
                    # can beat earlier availability under expensive intra-node
                    # communication).
                    choices = [tuple(by_free[:w])]
                    if w == 1:
                        for pp in pred_primaries:
                            if pp in node_proc_sets[node] and (pp,) not in choices:
                                choices.append((pp,))
                    dur = durs[node]
                    for chosen in choices:
                        primary = chosen[0]
                        est = free[chosen[-1]]  # the latest-free of the w earliest
                        for pend, src, memo, nbytes in data_ready:
                            delay = memo[src * P + primary]
                            if delay is None:
                                delay = memo[src * P + primary] = transfer_time(
                                    nbytes, src, primary
                                )
                            if pend + delay > est:
                                est = pend + delay
                        # Lower bound, part 1: this task's own remaining chain from est.
                        if (est + rem) * infl > cutoff:
                            pruned_bound += 1
                            continue
                        end = est + dur
                        saved = [free[p] for p in chosen]
                        # Lower bound, part 2 (load): committing this placement
                        # raises each chosen processor's free time to `end`; all
                        # remaining work can only land after the free times, so
                        # P * latency >= sum(free) + the minimal processor-time
                        # of the still-unplaced tasks.  This is what prices out
                        # inefficient data-parallel variants and idle-inducing
                        # placements early.
                        new_sum = sum_free - sum(saved) + end * w
                        if (new_sum + new_rem) / P * infl > cutoff:
                            pruned_bound += 1
                            continue
                        for p in chosen:
                            free[p] = end
                        signature = (name, chosen, round(est, 12), durs12[node], label)
                        placed[name] = (end, chosen, est, dur, label, signature)
                        sid = sig_ids.setdefault(signature, len(sig_ids))
                        recurse(
                            next_ready,
                            end if end > max_end else max_end,
                            sig | {sid},
                            new_sum,
                            new_rem,
                        )
                        del placed[name]
                        for p, t in zip(chosen, saved):
                            free[p] = t
            for s in succs[name]:
                n_unscheduled_preds[s] += 1

    try:
        recurse(ready, 0.0, frozenset(), 0.0, sum(min_work.values()))
    except _EarlyStop:
        pass
    if not solutions:
        raise InfeasibleSchedule(
            f"no legal schedule for graph {problem.graph_name!r} on {cluster!r}"
        )
    ordered = [
        IterationSchedule._from_rows(solutions[key][1], key, solutions[key][0], f"opt[{i}]")
        for i, key in enumerate(sorted(solutions, key=lambda k: (solutions[k][0], k)))
    ]
    # Certified lower bound on L*: an exact search proves its own latency
    # optimal; a bounded one proves L* > U / (1 + ε) by the pruning
    # argument above (never weaker than the static root bound).
    if bound_inflation > 0.0:
        cert_lb = max(root_bound, best_latency / infl)
    else:
        cert_lb = best_latency
    return EnumerationResult(
        latency=best_latency,
        schedules=ordered,
        optimal_count=optimal_count,
        explored=explored,
        state=state,
        pruned_bound=pruned_bound,
        pruned_dominance=pruned_dominance,
        lower_bound=cert_lb,
        root_bound=root_bound,
        bound_inflation=bound_inflation,
    )
