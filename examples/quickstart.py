#!/usr/bin/env python
"""Quickstart: schedule the color tracker optimally and run it.

This walks the full pipeline of the paper in ~40 lines of API:

1. build the Figure 2 task graph with its calibrated cost models,
2. run the Figure 6 algorithm (minimal-latency iteration + pipelining),
3. execute the schedule on the simulated 4-processor SMP,
4. measure latency/throughput/uniformity and print a Gantt chart.

Run:  python examples/quickstart.py
"""

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.pipeline import naive_pipeline
from repro.graph.render import to_ascii
from repro.metrics.gantt import render_schedule
from repro.metrics.latency import latency_stats, throughput_from_completions
from repro.metrics.uniformity import uniformity_stats
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


def main() -> None:
    graph = build_tracker_graph()
    state = State(n_models=8)        # eight people in front of the kiosk
    cluster = SINGLE_NODE_SMP(4)     # one AlphaServer-class SMP

    print("The application (Figure 2):")
    print(to_ascii(graph))
    print()

    # Off-line: the Figure 6 algorithm.
    solution = OptimalScheduler(cluster).solve(graph, state)
    print(f"Optimal schedule for {state}:")
    print(f"  latency L          = {solution.latency:.3f} s")
    print(f"  initiation interval = {solution.period:.3f} s "
          f"(throughput {solution.throughput:.3f} frames/s)")
    print(f"  optimal iteration schedules found (|S|, counted up to the cap) = "
          f"{solution.alternatives}")
    for pl in solution.iteration.placements:
        print(f"    {pl.task:4s} on procs {list(pl.procs)} "
              f"at t={pl.start:.3f}s for {pl.duration:.3f}s ({pl.variant})")
    print()

    # Baseline for comparison: naive software pipelining (Figure 4b).
    naive = naive_pipeline(graph, state, cluster)
    print(f"Naive pipeline latency = {naive.latency:.3f} s "
          f"(optimal is {naive.latency / solution.latency:.1f}x faster)")
    print()

    # Execute the schedule in simulation and measure.
    result = StaticExecutor(graph, state, cluster, solution).run(iterations=20)
    stats = latency_stats(result, warmup_fraction=0.2)
    uni = uniformity_stats(result)
    thr = throughput_from_completions(result.completion_sequence(), result.horizon)
    print(f"Executed 20 frames: latency {stats.mean:.3f}s (spread {stats.spread:.4f}s), "
          f"throughput {thr:.3f}/s, coverage {uni.coverage:.0%}, "
          f"schedule slips: {result.meta['slips']}")
    print()
    print("Three pipelined iterations (time down, processors across):")
    print(render_schedule(solution.pipelined, iterations=3))


if __name__ == "__main__":
    main()
