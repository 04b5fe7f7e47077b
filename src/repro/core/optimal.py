"""The full Figure 6 algorithm.

    Compute the minimal latency, L, for a single iteration
    Compute the set, S, of all single iteration schedules that exhibit
        latency, L
    Compute the multi-iteration schedule, M, created from multiple
        instances of a schedule from S

Step 1 and 2 are :func:`repro.core.enumerate.enumerate_schedules`; step 3
picks, among the members of S, the iteration schedule whose pipelined form
has the smallest initiation interval — i.e. maximal throughput subject to
minimal latency, the paper's stated priority ("without sacrificing latency,
of course we would like to attain maximum possible throughput").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.enumerate import EnumerationResult, enumerate_schedules
from repro.errors import InfeasibleSchedule
from repro.core.pipeline import PipelineSearch, best_pipelined
from repro.core.schedule import IterationSchedule, PipelinedSchedule
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = [
    "GapCertificate",
    "ScheduleSolution",
    "OptimalScheduler",
    "solution_from_enumeration",
    "solution_from_fallback",
]

_EPS = 1e-9


@dataclass(frozen=True)
class GapCertificate:
    """The optimality-gap claim attached to a served schedule.

    The solver ladder (:mod:`repro.approx`) serves schedules that may be
    suboptimal; this certificate is what makes that safe — it states
    *how* suboptimal, in a form rule ``S013`` can re-check independently:

    Attributes
    ----------
    policy:
        Which rung produced the schedule: ``"exact"`` (branch and bound
        run to completion), ``"bounded"`` (ε-inflated branch and bound)
        or ``"list"`` (HEFT list-scheduling fallback).
    epsilon:
        The requested suboptimality budget (0 for exact and list).
    lower_bound:
        Certified lower bound on the true optimum L*: the latency itself
        for exact, ``max(root_bound, latency / (1 + ε))`` for bounded,
        ``root_bound`` for list.
    root_bound:
        The static critical-path/load bound
        (:func:`repro.core.enumerate.static_lower_bound`) — re-derivable
        from the graph, state and cluster alone, anchoring the claim to
        something no search artifact can fake.
    gap_bound:
        ``latency / lower_bound - 1`` — the claimed worst-case relative
        gap.  Bounded rungs guarantee ``gap_bound <= epsilon``.
    dp_cap:
        The data-parallel width cap the search problem was built with
        (the verifier must materialize the same variant sets to
        reproduce ``root_bound``).
    """

    policy: str
    epsilon: float
    lower_bound: float
    root_bound: float
    gap_bound: float
    dp_cap: int

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.policy}(ε={self.epsilon:g}): "
            f"gap<={self.gap_bound * 100:.2f}% "
            f"(LB={self.lower_bound:.4g}s, root={self.root_bound:.4g}s)"
        )


@dataclass
class ScheduleSolution:
    """An optimal schedule for one application state.

    Attributes
    ----------
    state:
        The application state this solution is optimal for.
    iteration:
        The chosen member of S (minimal latency L).
    pipelined:
        The multi-iteration schedule M built from it.
    alternatives:
        Total count of distinct optimal iteration schedules (|S|).
    explored:
        Branch-and-bound nodes visited while computing S.
    certificate:
        Optimality-gap claim (:class:`GapCertificate`); ``None`` only on
        artifacts serialized before certificates existed.
    """

    state: State
    iteration: IterationSchedule
    pipelined: PipelinedSchedule
    alternatives: int
    explored: int
    certificate: Optional[GapCertificate] = None

    @property
    def latency(self) -> float:
        """Minimal single-iteration latency L (seconds)."""
        return self.iteration.latency

    @property
    def period(self) -> float:
        """Initiation interval of M (seconds)."""
        return self.pipelined.period

    @property
    def throughput(self) -> float:
        """Iterations completed per second under M."""
        return self.pipelined.throughput

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.state}: L={self.latency:.4g}s, II={self.period:.4g}s "
            f"(throughput {self.throughput:.4g}/s), |S|={self.alternatives}"
        )


def _certificate_from_result(
    result: EnumerationResult, dp_cap: int
) -> Optional[GapCertificate]:
    """Build the gap certificate an enumeration result supports.

    Results lacking bound information (hand-built in tests, or produced
    by a pre-certificate build) get ``None`` — no claim is better than an
    unverifiable one.
    """
    if result.root_bound <= 0.0 or result.lower_bound <= 0.0:
        return None
    policy = "bounded" if result.bound_inflation > 0.0 else "exact"
    gap = result.latency / result.lower_bound - 1.0
    return GapCertificate(
        policy=policy,
        epsilon=result.bound_inflation,
        lower_bound=result.lower_bound,
        root_bound=result.root_bound,
        gap_bound=max(0.0, gap),
        dp_cap=dp_cap,
    )


def solution_from_enumeration(
    result: EnumerationResult,
    cluster: ClusterSpec,
    dp_cap: Optional[int] = None,
) -> ScheduleSolution:
    """Step 3 of Figure 6: pick the throughput-best pipelining of a member of S.

    Shared by :meth:`OptimalScheduler.solve` and the process-pool workers
    of :mod:`repro.core.parallel`, so both paths produce bit-identical
    solutions.  ``dp_cap`` is the data-parallel width cap the search
    problem was built with (recorded in the certificate; defaults to the
    cluster's processors per node, which is what every table build uses).

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
    cap = dp_cap if dp_cap is not None else cluster.procs_per_node
    return ScheduleSolution(
        state=result.state,
        iteration=best_iter,
        pipelined=best,
        alternatives=result.optimal_count,
        explored=result.explored,
        certificate=_certificate_from_result(result, cap),
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
    gap = schedule.latency / lb - 1.0 if lb > 0.0 else 0.0
    cert = None
    if lb > 0.0:
        cap = dp_cap if dp_cap is not None else cluster.procs_per_node
        cert = GapCertificate(
            policy=policy,
            epsilon=epsilon,
            lower_bound=lb,
            root_bound=root_bound,
            gap_bound=max(0.0, gap),
            dp_cap=cap,
        )
    return ScheduleSolution(
        state=state,
        iteration=schedule,
        pipelined=piped,
        alternatives=1,
        explored=explored,
        certificate=cert,
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
        warm_start: bool = True,
        dominance: bool = True,
    ) -> None:
        self.cluster = cluster
        self.comm = comm
        self.max_workers = max_workers
        self.max_solutions = max_solutions
        self.node_limit = node_limit
        self.warm_start = warm_start
        self.dominance = dominance

    def enumerate(self, graph: TaskGraph, state: State) -> EnumerationResult:
        """Steps 1-2 of Figure 6: minimal latency L and the set S."""
        return enumerate_schedules(
            graph,
            state,
            self.cluster,
            comm=self.comm,
            max_workers=self.max_workers,
            max_solutions=self.max_solutions,
            node_limit=self.node_limit,
            warm_start=self.warm_start,
            dominance=self.dominance,
        )

    def request(self, graph: TaskGraph, state: State, tag=None):
        """A picklable :class:`~repro.core.parallel.SolveRequest` for this solve.

        The request snapshots all costs, so it can be executed in a worker
        process (:func:`repro.core.parallel.solve_many`) or digested into a
        cache key (:mod:`repro.core.cache`) without re-touching the graph.
        """
        from repro.core.parallel import make_request  # deferred: avoids import cycle

        return make_request(
            graph,
            state,
            self.cluster,
            self.comm,
            mode="solve",
            max_workers=self.max_workers,
            max_solutions=self.max_solutions,
            node_limit=self.node_limit,
            warm_start=self.warm_start,
            dominance=self.dominance,
            tag=tag,
        )

    def solve(self, graph: TaskGraph, state: State) -> ScheduleSolution:
        """All three steps: the throughput-best pipelining of a member of S."""
        return solution_from_enumeration(self.enumerate(graph, state), self.cluster)
