"""The latency/throughput frontier experiment (extension).

Not a paper figure — the paper picks one point (minimal latency, then best
II) and Figure 3 compares it against hand tuning.  The related work it
cites ([13] Subhlok & Vondran) characterizes the *whole* trade-off; this
experiment computes that frontier for the tracker across states, placing
the paper's chosen point and the naive pipeline on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.frontier import FrontierPoint, frontier_sweep
from repro.core.optimal import OptimalScheduler
from repro.experiments.report import format_table
from repro.metrics.curves import CurvePoint, render_curve
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State

__all__ = ["FrontierResult", "run_frontier"]


@dataclass
class FrontierResult:
    """Per-state frontiers with the paper's chosen points marked."""

    frontiers: dict[int, list[FrontierPoint]]
    chosen: dict[int, tuple[float, float]]  # n_models -> (latency, throughput)

    def wasted_space(self, n_models: int) -> float:
        """Throughput left on the table by the latency-first choice."""
        front = self.frontiers[n_models]
        best_throughput = max(p.throughput for p in front)
        chosen_throughput = self.chosen[n_models][1]
        if chosen_throughput <= 0:
            return 0.0
        return best_throughput / chosen_throughput - 1.0

    def render(self) -> str:
        parts = []
        for m, front in sorted(self.frontiers.items()):
            rows = [
                [f"{p.latency:.3f}", f"{p.throughput:.3f}", f"{p.period:.3f}",
                 "<- paper's choice" if i == 0 else ""]
                for i, p in enumerate(front)
            ]
            parts.append(
                format_table(
                    ["latency (s)", "throughput (1/s)", "II (s)", ""],
                    rows,
                    title=f"Latency/throughput frontier, {m} models "
                          f"(wasted space {self.wasted_space(m):.1%})",
                )
            )
            if len(front) > 1:
                chosen_pt = CurvePoint(*reversed(self.chosen[m]))
                curve = render_curve(
                    [CurvePoint(p.throughput, p.latency) for p in front],
                    highlight=CurvePoint(self.chosen[m][1], self.chosen[m][0]),
                    height=12,
                )
                parts.append(curve)
        return "\n\n".join(parts)


def run_frontier(
    model_counts: Sequence[int] = (1, 4, 8),
    cluster: Optional[ClusterSpec] = None,
    latency_slack: float = 3.0,
) -> FrontierResult:
    """Compute the frontier for each state and mark the paper's choice."""
    cluster = cluster or SINGLE_NODE_SMP(4)
    graph = build_tracker_graph()
    scheduler = OptimalScheduler(cluster)
    states = [State(n_models=m) for m in model_counts]
    sweeps = frontier_sweep(graph, states, cluster, latency_slack=latency_slack)
    frontiers: dict[int, list[FrontierPoint]] = {}
    chosen: dict[int, tuple[float, float]] = {}
    for m, state, points in zip(model_counts, states, sweeps):
        frontiers[m] = points
        sol = scheduler.solve(graph, state)
        chosen[m] = (sol.latency, sol.throughput)
    return FrontierResult(frontiers=frontiers, chosen=chosen)
