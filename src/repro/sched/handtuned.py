"""Hand tuning: the digitizer-period sweep of §3.1.

"In the color tracker and other applications based on digitized video
images, the primary tuning variable is the period at which the digitizer
thread executes."  :func:`tuning_curve` reproduces the experiment behind
Figure 3: for each candidate period, run the application under the general
on-line scheduler and measure latency and throughput.  The curve's two
regimes emerge exactly as described:

* short periods saturate the channels — high throughput, high latency
  (backlogged frames), erratic timings;
* long periods drain the backlog — latency falls toward the pipeline's
  service time while throughput falls with the input rate.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ExperimentError
from repro.graph.taskgraph import TaskGraph
from repro.runtime.result import ExecutionResult
from repro.sched.online import PthreadScheduler
from repro.sim.cluster import ClusterSpec
from repro.state import State

__all__ = ["TuningPoint", "with_source_period", "measure_point", "tuning_curve"]


@dataclass(frozen=True)
class TuningPoint:
    """One measured operating point of the tuning curve.

    ``latency`` is the mean end-to-end latency over completed frames after
    warm-up; ``latency_spread`` is (max - min) over the same window — the
    paper's "fairly erratic, varying by about one second" observation is
    this number in the saturated region.  ``throughput`` is the inverse
    mean inter-arrival time of results.
    """

    period: float
    latency: float
    latency_min: float
    latency_max: float
    throughput: float
    completed: int
    emitted: int

    @property
    def latency_spread(self) -> float:
        return self.latency_max - self.latency_min



def with_source_period(graph: TaskGraph, period: Optional[float]) -> TaskGraph:
    """A copy of ``graph`` whose source tasks fire with the given period."""
    out = TaskGraph(f"{graph.name}@{period}")
    for ch in graph.channels:
        out.add_channel(ch)
    sources = set(graph.source_tasks())
    for t in graph.tasks:
        if t.name in sources:
            out.add_task(t.replace(period=period))
        else:
            out.add_task(t)
    out.validate()
    return out


def measure_point(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    period: float,
    horizon: float,
    quantum: float = 0.010,
    jitter_seed: Optional[int] = None,
    warmup_fraction: float = 0.25,
    input_policy: str = "latest",
    channel_capacity: Optional[int] = None,
) -> tuple[TuningPoint, ExecutionResult]:
    """Run one operating point and summarize it.

    ``channel_capacity`` bounds every streaming channel (the real system's
    STM channels are finite); a full channel blocks its producer, so the
    digitizer throttles instead of accumulating unbounded backlog.
    """
    # Imported here: repro.runtime.dynamic itself imports the scheduler
    # interface from this package, so a module-level import would cycle.
    from repro.runtime.dynamic import DynamicExecutor

    tuned = with_source_period(graph, period)
    scheduler = PthreadScheduler(quantum=quantum, jitter_seed=jitter_seed)
    override = None
    if channel_capacity is not None:
        override = {
            ch.name: channel_capacity for ch in graph.channels if not ch.static
        }
    executor = DynamicExecutor(
        tuned, state, cluster, scheduler,
        input_policy=input_policy, capacity_override=override,
    )
    result = executor.run(horizon=horizon)
    completed = result.completed
    if not completed:
        raise ExperimentError(
            f"period {period}: nothing completed within horizon {horizon}s"
        )
    cut = int(len(completed) * warmup_fraction)
    window = completed[cut:] or completed
    lats = [result.latency(ts) for ts in window]
    lats = [l for l in lats if l is not None]
    seq = sorted(result.completion_times[ts] for ts in window)
    if len(seq) >= 2:
        inter = [(b - a) for a, b in zip(seq, seq[1:])]
        throughput = 1.0 / statistics.mean(inter) if statistics.mean(inter) > 0 else 0.0
    else:
        throughput = len(seq) / horizon
    point = TuningPoint(
        period=period,
        latency=statistics.mean(lats),
        latency_min=min(lats),
        latency_max=max(lats),
        throughput=throughput,
        completed=result.completed_count,
        emitted=result.emitted,
    )
    return point, result


def tuning_curve(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    periods: Sequence[float],
    horizon: float,
    quantum: float = 0.010,
    jitter_seed: Optional[int] = None,
    input_policy: str = "latest",
    channel_capacity: Optional[int] = None,
) -> list[TuningPoint]:
    """Measure the whole latency/throughput tuning curve."""
    if not periods:
        raise ExperimentError("tuning_curve needs at least one period")
    points = []
    for period in periods:
        if period <= 0:
            raise ExperimentError(f"periods must be positive, got {period}")
        point, _ = measure_point(
            graph,
            state,
            cluster,
            period,
            horizon,
            quantum=quantum,
            jitter_seed=jitter_seed,
            input_policy=input_policy,
            channel_capacity=channel_capacity,
        )
        points.append(point)
    return points
