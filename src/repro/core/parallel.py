"""The off-line solve path: request → execute, one at a time or in batches.

Every answer the off-line phase produces comes through two functions.
:func:`make_request` reads the inputs of Figure 6 once — it evaluates
every cost callable into a :class:`~repro.core.enumerate.SearchProblem`
snapshot — and packs the result as a :class:`SolveRequest`; it
runs no scheduler, so everything before :meth:`ScheduleCache.fetch
<repro.core.cache.ScheduleCache.fetch>` is the snapshot and its digest.
:func:`execute_request` — the miss path — first computes the warm-start
incumbent (:func:`incumbent_of`: the HEFT list schedule of that snapshot,
validated against it, and for approximate requests the fallback
schedule), then runs the request to completion.  It is the only caller of
:func:`~repro.core.enumerate.search_schedules` (steps 1-2) and
:func:`~repro.core.optimal.solution_from_enumeration` (step 3); both are
resolved through this module's namespace at call time, which is the
by-name contract ``benchmarks/e2e`` wraps its spans around (and where an
ablation would swap in a cold search).  ``OptimalScheduler.solve`` /
``.enumerate``, ``enumerate_schedules``, the frontier and sensitivity
sweeps, the table builders and every solver rung are these two calls.

Every state of a :class:`~repro.state.StateSpace`, every degraded shape
of a :class:`~repro.faults.failover.ShapeTable`, every slack level of a
frontier sweep is an independent branch-and-bound; :func:`solve_many`
runs such a batch in request order, in this process.  The paper's table
covers "a small number of states" (§1), and a batch that small does not
repay the start-up and per-chunk shipping of a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.core.enumerate import (
    EnumerationResult,
    SearchProblem,
    check_settings,
    search_schedules,
    static_lower_bound,
)
from repro.core.optimal import solution_from_enumeration, solution_from_fallback
from repro.core.schedule import IterationSchedule, ScheduleSolution
from repro.errors import InfeasibleSchedule, ReproError, ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = [
    "SolveRequest",
    "make_request",
    "incumbent_of",
    "execute_request",
    "solve_many",
]


@dataclass
class SolveRequest:
    """One self-contained off-line solve, ready to execute or digest.

    The request carries a :class:`~repro.core.enumerate.SearchProblem`
    (all cost callables pre-evaluated) instead of the graph itself, so it
    digests stably for the on-disk cache.

    ``mode`` selects what :func:`execute_request` returns:

    * ``"solve"`` — a full :class:`~repro.core.schedule.ScheduleSolution`
      (steps 1-3 of Figure 6);
    * ``"enumerate"`` — the raw
      :class:`~repro.core.enumerate.EnumerationResult` (steps 1-2 only),
      used by the frontier and sensitivity sweeps that inspect S itself;
    * ``"list"`` — no search at all: the HEFT list schedule wrapped as a
      solution with a root-bound gap certificate (the list rung of
      :mod:`repro.approx`).

    ``bound_inflation`` (ε) makes the search bounded-suboptimal; a
    bounded search that blows ``node_limit`` serves the list schedule
    instead.

    The request carries no bound: a miss searches under
    :func:`incumbent_of`'s, the validated HEFT schedule of the snapshot.

    ``tag`` is an opaque caller label (a state, a shape key, a trial
    index) carried through untouched; ``solve_many`` never looks at it.
    """

    problem: SearchProblem
    state: State
    cluster: ClusterSpec
    comm: Optional[CommModel] = None
    mode: str = "solve"
    max_solutions: int = 64
    node_limit: int = 2_000_000
    tolerance: float = 1e-9
    latency_slack: float = 0.0
    bound_inflation: float = 0.0
    dp_cap: Optional[int] = None
    tag: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("solve", "enumerate", "list"):
            raise ValueError(f"unknown solve mode {self.mode!r}")
        # Refused here as well as in the search: execute_request reads a
        # ScheduleError raised there as a blown node budget.
        check_settings(
            max_solutions=self.max_solutions, node_limit=self.node_limit,
            tolerance=self.tolerance, latency_slack=self.latency_slack,
            bound_inflation=self.bound_inflation,
        )


def make_request(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    *,
    mode: str = "solve",
    max_workers: Optional[int] = None,
    max_solutions: int = 64,
    node_limit: int = 2_000_000,
    tolerance: float = 1e-9,
    latency_slack: float = 0.0,
    bound_inflation: float = 0.0,
    tag: Any = None,
) -> SolveRequest:
    """Snapshot one (graph, state, cluster) solve into a :class:`SolveRequest`.

    The costs are read once, into the :class:`SearchProblem`, and nothing
    else happens here: no list schedule, no search.  The request is the
    cache key's whole input, so a builder digests and fetches before any
    scheduler runs; the warm-start incumbent is :func:`execute_request`'s
    business, on a miss.  That is also where ``mode="list"`` reports a
    graph the list scheduler cannot place (:class:`InfeasibleSchedule`,
    at execute time — a batch that skips infeasible keys skips it too).
    """
    dp_cap = max_workers if max_workers is not None else cluster.procs_per_node
    problem = SearchProblem.from_graph(graph, state, max_workers=dp_cap)
    if mode == "list" and not problem.order_names:
        mode = "solve"  # empty graph: the search's trivial result is exact
    return SolveRequest(
        problem=problem,
        state=state,
        cluster=cluster,
        comm=comm,
        mode=mode,
        max_solutions=max_solutions,
        node_limit=node_limit,
        tolerance=tolerance,
        latency_slack=latency_slack,
        bound_inflation=bound_inflation,
        dp_cap=dp_cap,
        tag=tag,
    )


def incumbent_of(
    request: SolveRequest,
) -> tuple[Optional[float], Optional[IterationSchedule]]:
    """The ``(upper bound, fallback schedule)`` a miss of ``request`` runs under.

    The HEFT list schedule of the request's snapshot — linear-time, and
    validated against that same snapshot (task set, processor range and
    exclusivity, precedence with communication) before its latency bounds
    anything.  A heuristic that cannot produce a legal schedule yields
    ``(None, None)`` and the search simply starts cold.  The fallback is
    kept for approximate requests only (``mode="list"``,
    ``bound_inflation`` > 0) — the rungs that may serve it.
    """
    # Deferred: repro.sched imports repro.core, and a wrap of
    # listsched.heft_schedule by name must see this call.
    from repro.sched.listsched import heft_schedule

    heft: Optional[IterationSchedule] = None
    if request.problem.order_names:
        try:
            heft = heft_schedule(
                request.problem, request.state, request.cluster, request.comm
            )
            heft.validate(
                request.problem, request.state, request.cluster, request.comm
            )
        except (ReproError, AssertionError):
            heft = None
    bound = heft.latency if heft is not None else None
    approximate = request.bound_inflation > 0.0 or request.mode == "list"
    return bound, heft if approximate else None


def execute_request(
    request: SolveRequest,
) -> Union[ScheduleSolution, EnumerationResult]:
    """Run one request to completion.

    This is the miss path, and the one place a list schedule is computed:
    :func:`incumbent_of` gives the bound the search runs under and
    the fallback the approximate rungs may serve.  ``mode="list"`` serves
    that fallback directly and raises :class:`InfeasibleSchedule` when
    the list scheduler placed nothing legal.

    A bounded search (``bound_inflation`` under ``node_limit``) serves
    the ``fallback`` list schedule, wrapped with a sound gap certificate,
    when its ε-pruning eliminated every leaf or it blew its node budget.
    """
    incumbent, fallback = incumbent_of(request)
    if request.mode == "list":
        if fallback is None:
            raise InfeasibleSchedule(
                f"list scheduler produced no legal schedule for "
                f"{request.problem.graph_name!r} in {request.state!r} "
                f"on {request.cluster!r}"
            )
        return _serve_fallback(request, fallback, policy="list")
    eps = request.bound_inflation
    try:
        result = search_schedules(
            request.problem,
            request.state,
            request.cluster,
            request.comm,
            max_solutions=request.max_solutions,
            node_limit=request.node_limit,
            tolerance=request.tolerance,
            latency_slack=request.latency_slack,
            incumbent=incumbent,
            bound_inflation=eps,
        )
    except InfeasibleSchedule:
        if eps > 0.0 and fallback is not None:
            # ε-pruning cut every leaf *against the incumbent*: anything
            # better than fallback/(1+ε) was provably pruned, so serving
            # the incumbent is within the bounded contract.
            return _serve_fallback(request, fallback, policy="bounded", epsilon=eps)
        raise
    except ScheduleError:
        if fallback is None:
            raise
        return _serve_fallback(request, fallback, policy="list")  # budget blown
    if request.mode == "enumerate":
        return result
    return solution_from_enumeration(
        result, request.cluster, dp_cap=request.dp_cap
    )


def _serve_fallback(
    request: SolveRequest,
    fallback: IterationSchedule,
    policy: str,
    epsilon: float = 0.0,
) -> ScheduleSolution:
    """The request's list-schedule fallback as a certified solution."""
    root = static_lower_bound(request.problem, request.cluster)
    return solution_from_fallback(
        fallback,
        request.state,
        request.cluster,
        root_bound=root,
        policy=policy,
        epsilon=epsilon,
        dp_cap=request.dp_cap,
    )


def solve_many(
    requests: Sequence[SolveRequest],
    return_exceptions: bool = False,
    cache=None,
) -> list:
    """Execute a batch of solve requests in this process, in request order.

    Parameters
    ----------
    requests:
        The batch; each element is solved independently.
    return_exceptions:
        When true, a request that raises a domain error
        (:class:`~repro.errors.ReproError`, e.g. an infeasible degraded
        shape) contributes the *exception object* at its position instead
        of aborting the batch — callers like
        :class:`~repro.faults.failover.ShapeTable` filter those out.
    cache:
        Optional :class:`~repro.core.cache.ScheduleCache`.  Requests that
        digest to a cached entry skip the solve entirely; only the misses
        are executed, and their fresh solutions are stored back.  This
        is the one place the fetch / solve / store sequence lives — the
        table builders and the lazy table pass their ``cache`` down to
        here.
    """
    reqs = list(requests)
    results = [cache.fetch(r) if cache is not None else None for r in reqs]
    pending = [i for i, hit in enumerate(results) if hit is None]
    for i in pending:
        try:
            results[i] = execute_request(reqs[i])
        except ReproError as exc:
            if not return_exceptions:
                raise
            results[i] = exc
    if cache is not None:
        for i in pending:
            if isinstance(results[i], ScheduleSolution):
                cache.store(reqs[i], results[i])
    return results
