"""Metrics: latency, throughput, uniformity, Gantt rendering, curves.

The paper's two performance objectives are "minimizing latency and
maximizing uniformity of frame processing over time", with throughput as
the secondary axis of Figure 3.  This package computes all three from
execution results and renders the Figure 4/5-style Gantt charts as ASCII.
"""

from repro.metrics.latency import LatencyStats, latency_stats, throughput_from_completions
from repro.metrics.uniformity import UniformityStats, uniformity_stats
from repro.metrics.gantt import render_gantt, render_schedule
from repro.metrics.curves import CurvePoint, pareto_front, dominates
from repro.metrics.recovery import RecoveryStats, recovery_stats

__all__ = [
    "LatencyStats",
    "latency_stats",
    "throughput_from_completions",
    "UniformityStats",
    "uniformity_stats",
    "render_gantt",
    "render_schedule",
    "CurvePoint",
    "pareto_front",
    "dominates",
    "RecoveryStats",
    "recovery_stats",
]
