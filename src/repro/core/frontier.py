"""The latency/throughput frontier of a (graph, state, cluster) triple.

Figure 3 plots single operating points; the related work the paper builds
on ([13] Subhlok & Vondran, "Optimal Latency-Throughput Tradeoffs for Data
Parallel Pipelines") characterizes the whole trade-off curve.  This module
computes that curve with the Figure 6 machinery:

1. enumerate all schedules within a latency slack of the optimum
   (a ``mode="enumerate"`` request with ``latency_slack=...``),
2. pipeline each one (minimal initiation interval over shifts),
3. keep the Pareto-optimal (latency, throughput) pairs.

The paper's chosen point — minimal latency, then best throughput — is
always the leftmost point of this frontier; the naive pipeline of Figure
4(b) anchors the other end (maximal throughput at the cost of serial
latency).  The frontier quantifies what §3.3 calls "wasted space": how
much throughput the latency-first policy leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.enumerate import EnumerationResult
from repro.core.pipeline import best_pipelined, naive_pipeline
from repro.core.schedule import PipelinedSchedule
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["FrontierPoint", "latency_throughput_frontier", "frontier_sweep"]

_EPS = 1e-9


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal operating point."""

    latency: float
    throughput: float
    schedule: PipelinedSchedule

    @property
    def period(self) -> float:
        return self.schedule.period


def latency_throughput_frontier(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    latency_slack: float = 1.0,
    max_solutions: int = 256,
    include_naive: bool = True,
    max_workers: Optional[int] = None,
) -> list[FrontierPoint]:
    """Pareto frontier of (latency, throughput), sorted by latency.

    Parameters
    ----------
    latency_slack:
        How far above the minimal latency to explore (1.0 = up to 2x L).
        The naive pipeline is appended regardless when ``include_naive``
        (it may exceed the slack but anchors the throughput end).
    max_solutions:
        Cap on candidate iteration schedules materialized per call.
    """
    return frontier_sweep(
        graph,
        [state],
        cluster,
        comm,
        latency_slack=latency_slack,
        max_solutions=max_solutions,
        include_naive=include_naive,
        max_workers=max_workers,
    )[0]


def _points_from_result(
    result: EnumerationResult,
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    include_naive: bool,
) -> list[FrontierPoint]:
    """Pipeline every candidate and Pareto-filter the operating points."""
    candidates: list[FrontierPoint] = []
    for iteration in result.schedules:
        piped = best_pipelined(iteration, cluster, name=f"frontier[{iteration.name}]")
        candidates.append(
            FrontierPoint(
                latency=iteration.latency,
                throughput=piped.throughput,
                schedule=piped,
            )
        )
    if include_naive:
        naive = naive_pipeline(graph, state, cluster)
        candidates.append(
            FrontierPoint(
                latency=naive.latency, throughput=naive.throughput, schedule=naive
            )
        )
    # Pareto filter: keep points no other point dominates.
    front = [
        p
        for p in candidates
        if not any(
            (q.latency <= p.latency + _EPS and q.throughput >= p.throughput - _EPS)
            and (q.latency < p.latency - _EPS or q.throughput > p.throughput + _EPS)
            for q in candidates
        )
    ]
    # Deduplicate identical (latency, throughput) pairs deterministically.
    seen: set[tuple[float, float]] = set()
    unique: list[FrontierPoint] = []
    for p in sorted(front, key=lambda p: (p.latency, -p.throughput)):
        key = (round(p.latency, 12), round(p.throughput, 12))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def frontier_sweep(
    graph: TaskGraph,
    states: Sequence[State],
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
    latency_slack: float = 1.0,
    max_solutions: int = 256,
    include_naive: bool = True,
    max_workers: Optional[int] = None,
) -> list[list[FrontierPoint]]:
    """One frontier per state, with the enumerations batched.

    The per-state enumerations go through
    :func:`repro.core.parallel.solve_many` as one batch; pipelining and
    Pareto filtering follow, linear in the candidate count.
    """
    from repro.core.parallel import make_request, solve_many

    requests = [
        make_request(
            graph,
            state,
            cluster,
            comm,
            mode="enumerate",
            max_workers=max_workers,
            max_solutions=max_solutions,
            latency_slack=latency_slack,
            tag=state,
        )
        for state in states
    ]
    results = solve_many(requests)
    return [
        _points_from_result(result, graph, state, cluster, include_naive)
        for state, result in zip(states, results)
    ]
