"""Figure 3: hand-tuned schedules vs the optimal pre-computed schedule.

The paper's experiment (8 target models):

* sweep the digitizer period from 33 ms (NTSC rate) to 5 s and, for each
  period, measure latency and throughput under the generic on-line
  scheduler running "the optimal data parallel decomposition for this
  program" (T4 split across four workers);
* run the pre-computed optimal schedule (Figure 5(b) structure) and plot
  it as a single point.

Claims to reproduce (shape, not absolutes):

1. the tuning curve trades latency against throughput monotonically, with
   erratic timings in the saturated region ("varying by about one second",
   a ~2x latency band);
2. the optimal point is "strictly better than all of the points on the
   tuning curve": it matches the curve's best latency while delivering
   near-maximal throughput.  The paper itself notes the optimal schedule
   "fails to achieve maximum throughput since the schedule contains some
   wasted space", so dominance is checked with a small throughput
   tolerance (the wasted-space gap, < 3% here);
3. the optimal latency is "less than half of the worst case latency for
   naive scheduling".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.tracker.graph import build_tracker_graph, tracker_planner
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import ScheduleSolution
from repro.experiments.report import format_table
from repro.graph.dataparallel import expand_data_parallel
from repro.graph.taskgraph import TaskGraph
from repro.metrics.curves import CurvePoint, dominates, render_curve
from repro.metrics.latency import latency_stats, throughput_from_completions
from repro.runtime.static_exec import StaticExecutor
from repro.sched.handtuned import TuningPoint, tuning_curve
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State

__all__ = ["Figure3Result", "run_figure3", "DEFAULT_PERIODS"]

#: The paper sweeps 33 ms to 5 s "in steps of approximately one second".
DEFAULT_PERIODS = (0.033, 0.3, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)


@dataclass
class Figure3Result:
    """Tuning curve + optimal point + the dominance verdicts."""

    points: list[TuningPoint]
    optimal_latency: float
    optimal_throughput: float
    solution: ScheduleSolution
    measured_optimal_latency: float
    measured_optimal_throughput: float

    def curve_points(self) -> list[CurvePoint]:
        return [
            CurvePoint(p.throughput, p.latency, label=f"P={p.period:g}")
            for p in self.points
        ]

    @property
    def optimal_point(self) -> CurvePoint:
        return CurvePoint(
            self.measured_optimal_throughput,
            self.measured_optimal_latency,
            label="optimal",
        )

    def optimal_dominates_curve(self, throughput_tolerance: float = 0.03) -> bool:
        """Claim 2: the optimal point dominates every tuned point.

        ``throughput_tolerance`` (absolute, in frames/s) absorbs the
        "wasted space" gap the paper describes: the optimal schedule's
        initiation interval is slightly longer than the idle-free naive
        pipeline's, so a fully saturated baseline can exceed its
        throughput by a few percent while paying several times the
        latency.
        """
        opt = self.optimal_point
        return all(dominates(opt, p, throughput_tolerance) for p in self.curve_points())

    def optimal_has_min_latency(self, tolerance: float = 1e-6) -> bool:
        """The optimal point matches the best latency on the curve."""
        return self.measured_optimal_latency <= min(
            p.latency for p in self.points
        ) + tolerance

    def halves_worst_latency(self) -> bool:
        """Claim 3: optimal latency < half the worst tuned latency."""
        worst = max(p.latency_max for p in self.points)
        return self.measured_optimal_latency < worst / 2.0

    def saturated_spread(self) -> float:
        """Latency spread (max-min) at the shortest period — the erratic band."""
        shortest = min(self.points, key=lambda p: p.period)
        return shortest.latency_spread

    def render(self) -> str:
        rows = [
            [p.period, p.latency, p.latency_min, p.latency_max, p.throughput,
             f"{p.completed}/{p.emitted}"]
            for p in sorted(self.points, key=lambda p: p.period)
        ]
        table = format_table(
            ["period (s)", "latency (s)", "lat min", "lat max", "thr (1/s)", "frames"],
            rows,
            title="Figure 3 reproduction: tuning curve (8 models)",
        )
        plot = render_curve(self.curve_points(), highlight=self.optimal_point)
        summary = (
            f"\noptimal schedule: L={self.measured_optimal_latency:.3f}s "
            f"(planned {self.optimal_latency:.3f}s), "
            f"throughput={self.measured_optimal_throughput:.3f}/s "
            f"(planned {self.optimal_throughput:.3f}/s)\n"
            f"optimal dominates whole curve (3% throughput tolerance): "
            f"{self.optimal_dominates_curve()}\n"
            f"optimal matches the curve's best latency: {self.optimal_has_min_latency()}\n"
            f"optimal latency < half of worst tuned latency: {self.halves_worst_latency()}\n"
            f"saturated-region latency spread: {self.saturated_spread():.3f}s"
        )
        return "\n".join([table, "", plot, summary])


def expanded_tracker_for_tuning(
    n_models: int = 8,
    workers: int = 4,
) -> TaskGraph:
    """Tracker with T4 expanded into its planned data-parallel subgraph.

    This is the program the paper hand-tunes: "naive scheduling of the
    optimal data parallel decomposition".
    """
    planner = tracker_planner(workers=workers)
    graph = build_tracker_graph(planner=planner)
    choice = planner.plan(State(n_models=n_models))
    return expand_data_parallel(
        graph, "T4", workers, n_chunks=choice.decomposition.n_chunks
    )


def run_figure3(
    n_models: int = 8,
    periods: Sequence[float] = DEFAULT_PERIODS,
    cluster: Optional[ClusterSpec] = None,
    horizon: float = 120.0,
    quantum: float = 0.010,
    jitter_seed: Optional[int] = 1999,
    optimal_iterations: int = 30,
    channel_capacity: int = 2,
    input_policy: str = "inorder",
) -> Figure3Result:
    """Run the full Figure 3 experiment.

    The tuned baseline runs with bounded channels (``channel_capacity``
    items each, matching the finite STM channels of the real system) and
    in-order frame processing: a saturated digitizer then *throttles on
    the backlog* instead of letting consumers skip unboundedly, which is
    exactly the paper's description of the 33 ms operating point ("it
    rapidly saturates all the channels ... a correspondingly high latency
    for a given frame due to the backlog of unprocessed items").
    """
    cluster = cluster or SINGLE_NODE_SMP(4)
    state = State(n_models=n_models)

    tuned_graph = expanded_tracker_for_tuning(n_models, cluster.procs_per_node)
    points = tuning_curve(
        tuned_graph, state, cluster, periods, horizon=horizon,
        quantum=quantum, jitter_seed=jitter_seed,
        input_policy=input_policy, channel_capacity=channel_capacity,
    )

    # The optimal pre-computed schedule (Figure 6 on the unexpanded graph,
    # where T4's data-parallel variants are first-class).
    scheduler = OptimalScheduler(cluster)
    solution = scheduler.solve(build_tracker_graph(), state)
    executed = StaticExecutor(build_tracker_graph(), state, cluster, solution).run(
        optimal_iterations
    )
    stats = latency_stats(executed, warmup_fraction=0.2)
    throughput = throughput_from_completions(
        executed.completion_sequence(), executed.horizon
    )
    return Figure3Result(
        points=points,
        optimal_latency=solution.latency,
        optimal_throughput=solution.throughput,
        solution=solution,
        measured_optimal_latency=stats.mean,
        measured_optimal_throughput=throughput,
    )
