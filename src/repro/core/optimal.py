"""The full Figure 6 algorithm.

    Compute the minimal latency, L, for a single iteration
    Compute the set, S, of all single iteration schedules that exhibit
        latency, L
    Compute the multi-iteration schedule, M, created from multiple
        instances of a schedule from S

Steps 1 and 2 are :func:`repro.core.enumerate.search_schedules`; step 3
(:func:`solution_from_enumeration`) picks, among the members of S, the
iteration schedule whose pipelined form has the smallest initiation
interval — i.e. maximal throughput subject to minimal latency, the paper's
stated priority ("without sacrificing latency, of course we would like to
attain maximum possible throughput").

There is one road from ``(graph, state, cluster)`` to an answer:
:meth:`OptimalScheduler.request` snapshots the costs into a
:class:`~repro.core.parallel.SolveRequest` and
:func:`~repro.core.parallel.execute_request` runs it — the only caller of
the search and of step 3.  :meth:`OptimalScheduler.solve` and
:meth:`~OptimalScheduler.enumerate` are those two calls in-process; table
builds, the solver ladder and the sweeps batch the same requests through
:func:`~repro.core.parallel.solve_many`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.enumerate import EnumerationResult
from repro.errors import InfeasibleSchedule
from repro.core.pipeline import PipelineSearch, best_pipelined
from repro.core.schedule import (
    GapCertificate,
    IterationSchedule,
    PipelinedSchedule,
    ScheduleSolution,
)
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = [
    "OptimalScheduler",
    "solution_from_enumeration",
    "solution_from_fallback",
]

_EPS = 1e-9


def _certificate(
    policy: str,
    epsilon: float,
    latency: float,
    lower_bound: float,
    root_bound: float,
    dp_cap: int,
) -> Optional[GapCertificate]:
    """The gap certificate a served latency and its bounds support.

    Without positive bounds (a result hand-built in tests, a pre-certificate
    build, an all-zero-cost graph) there is ``None`` — no claim is better
    than an unverifiable one.
    """
    if root_bound <= 0.0 or lower_bound <= 0.0:
        return None
    return GapCertificate(
        policy=policy,
        epsilon=epsilon,
        lower_bound=lower_bound,
        root_bound=root_bound,
        gap_bound=max(0.0, latency / lower_bound - 1.0),
        dp_cap=dp_cap,
    )


def solution_from_enumeration(
    result: EnumerationResult,
    cluster: ClusterSpec,
    dp_cap: Optional[int] = None,
) -> ScheduleSolution:
    """Step 3 of Figure 6: pick the throughput-best pipelining of a member of S.

    Called from :func:`repro.core.parallel.execute_request` only.
    ``dp_cap`` is the data-parallel width cap the search problem was built
    with (recorded in the certificate; defaults to the cluster's processors
    per node, the cap of a request built without ``max_workers``).

    A member of S none of whose shifts has a feasible II below the
    incumbent's period (less the tie tolerance) cannot replace it — the
    period its search returns is one of those per-shift minima — so it is
    dropped before its search is finished; one that may is searched in full,
    so which member wins a tie is unchanged.
    """
    best: Optional[PipelinedSchedule] = None
    best_iter: Optional[IterationSchedule] = None
    for candidate in result.schedules:
        search = PipelineSearch(candidate, cluster.total_processors)
        if best is not None and not search.beats(best.period - _EPS):
            continue
        piped = search.best(name=f"M[{candidate.name}]")
        if best is None or piped.period < best.period - _EPS:
            best = piped
            best_iter = candidate
    if best is None or best_iter is None:
        raise InfeasibleSchedule(
            f"enumeration for {result.state!r} produced no schedules to pipeline"
        )
    return ScheduleSolution(
        state=result.state,
        iteration=best_iter,
        pipelined=best,
        alternatives=result.optimal_count,
        explored=result.explored,
        certificate=_certificate(
            "bounded" if result.bound_inflation > 0.0 else "exact",
            result.bound_inflation,
            result.latency,
            result.lower_bound,
            result.root_bound,
            dp_cap if dp_cap is not None else cluster.procs_per_node,
        ),
    )


def solution_from_fallback(
    schedule: IterationSchedule,
    state: State,
    cluster: ClusterSpec,
    *,
    root_bound: float,
    policy: str,
    epsilon: float = 0.0,
    dp_cap: Optional[int] = None,
    explored: int = 0,
) -> ScheduleSolution:
    """Wrap a heuristic (list-scheduled or ε-pruned-away) schedule as a solution.

    Used by the ``"list"`` rung of the solver ladder, and by the bounded
    rung when ε-pruning eliminated every leaf below the warm incumbent —
    in that case the incumbent itself is certified within ``(1 + ε)`` of
    L* (everything better was pruned *against it*), so ``policy="bounded"``
    with the incumbent's latency is sound.
    """
    piped = best_pipelined(schedule, cluster, name=f"M[{schedule.name}]")
    lb = root_bound
    if policy == "bounded" and epsilon > 0.0:
        lb = max(lb, schedule.latency / (1.0 + epsilon))
    return ScheduleSolution(
        state=state,
        iteration=schedule,
        pipelined=piped,
        alternatives=1,
        explored=explored,
        certificate=_certificate(
            policy,
            epsilon,
            schedule.latency,
            lb,
            root_bound,
            dp_cap if dp_cap is not None else cluster.procs_per_node,
        ),
    )


class OptimalScheduler:
    """Off-line optimal scheduler for one cluster configuration.

    >>> from repro.graph.builders import chain_graph
    >>> from repro.sim.cluster import SINGLE_NODE_SMP
    >>> from repro.state import State
    >>> sched = OptimalScheduler(SINGLE_NODE_SMP(2))
    >>> sol = sched.solve(chain_graph([1.0, 1.0]), State(n_models=1))
    >>> sol.latency
    2.0
    >>> sol.period  # two processors, two seconds of work per iteration
    1.0
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        comm: Optional[CommModel] = None,
        max_workers: Optional[int] = None,
        max_solutions: int = 64,
        node_limit: int = 2_000_000,
    ) -> None:
        self.cluster = cluster
        self.comm = comm
        self.max_workers = max_workers
        self.max_solutions = max_solutions
        self.node_limit = node_limit

    def request(self, graph: TaskGraph, state: State, tag=None, **overrides):
        """A :class:`~repro.core.parallel.SolveRequest` for this solve.

        The request snapshots all costs, so it can be executed
        (:func:`repro.core.parallel.solve_many`) or digested into a cache
        key (:mod:`repro.core.cache`) without re-touching the graph.
        ``overrides`` are :func:`~repro.core.parallel.make_request` keywords
        (``mode``, ``bound_inflation``, ...) layered over this scheduler's
        own settings — what a :mod:`repro.approx` rung contributes.
        """
        from repro.core.parallel import make_request  # deferred: avoids import cycle

        params = {
            "max_workers": self.max_workers,
            "max_solutions": self.max_solutions,
            "node_limit": self.node_limit,
            **overrides,
        }
        return make_request(
            graph, state, self.cluster, self.comm, tag=tag, **params
        )

    def enumerate(self, graph: TaskGraph, state: State) -> EnumerationResult:
        """Steps 1-2 of Figure 6: minimal latency L and the set S."""
        from repro.core.parallel import execute_request  # deferred: avoids import cycle

        return execute_request(self.request(graph, state, mode="enumerate"))

    def solve(self, graph: TaskGraph, state: State) -> ScheduleSolution:
        """All three steps: the throughput-best pipelining of a member of S."""
        from repro.core.parallel import execute_request  # deferred: avoids import cycle

        return execute_request(self.request(graph, state))
