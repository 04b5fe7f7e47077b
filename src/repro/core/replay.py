"""Replaying a schedule's *structure* under a different application state.

The regime experiments need to answer: what happens if the runtime keeps
using the schedule pre-computed for state *k* while the application is
actually in state *m*?  The schedule's structure — which task runs on
which processors, in which order, with which data-parallel variant — is
fixed; only the durations change.  :func:`replay_with_state` recomputes
the start times of that fixed structure under the new durations (list
execution semantics: every placement starts as soon as its processors are
free and its predecessors are done), yielding the latency the mismatched
schedule actually delivers.

This is also the machinery behind the interpolation ablation (§2.1: "a
seemingly small state change could alter scheduling strategy
dramatically"): interpolating = replaying a neighbouring state's schedule.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import ScheduleError
from repro.core.pipeline import best_pipelined
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["variant_duration", "replay_with_state", "replay_pipelined"]

_DP_RE = re.compile(r"^dp(\d+)$")


def variant_duration(graph: TaskGraph, task_name: str, variant: str, state: State) -> float:
    """Duration of a named variant of a task in a given state."""
    task = graph.task(task_name)
    if variant == "serial":
        return task.cost(state)
    m = _DP_RE.match(variant)
    if m:
        if task.data_parallel is None:
            raise ScheduleError(
                f"schedule uses variant {variant!r} but task {task_name!r} "
                "has no data-parallel spec"
            )
        return task.data_parallel.duration(task, state, int(m.group(1)))
    raise ScheduleError(f"unknown variant label {variant!r} on task {task_name!r}")


def replay_with_state(
    iteration: IterationSchedule,
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
) -> IterationSchedule:
    """Re-time a fixed schedule structure under new task durations.

    Placement order, processor assignments and variant choices are kept;
    start times are recomputed with list-execution semantics, each
    duration being the variant's cost over the speed of the node its
    primary processor sits on — the same timing rule as the search, the
    list scheduler and the ``S`` verification rules, so a schedule
    replayed under its own state keeps its latency on any cluster.
    """
    free: dict[int, float] = {}
    done: dict[str, Placement] = {}
    new_placements: list[Placement] = []
    for pl in iteration.placements:  # already sorted by original start
        speed = cluster.node_speeds[cluster.node_of(pl.procs[0])]
        dur = variant_duration(graph, pl.task, pl.variant, state) / speed
        est = max((free.get(p, 0.0) for p in pl.procs), default=0.0)
        for pred in graph.predecessors(pl.task):
            if pred not in done:
                raise ScheduleError(
                    f"replay: {pl.task!r} ordered before its predecessor {pred!r}"
                )
            delay = 0.0
            if comm is not None:
                delay = comm.transfer_time(
                    graph.comm_bytes(pred, pl.task, state),
                    done[pred].primary,
                    pl.procs[0],
                )
            est = max(est, done[pred].end + delay)
        new_pl = Placement(pl.task, pl.procs, est, dur, variant=pl.variant)
        new_placements.append(new_pl)
        done[pl.task] = new_pl
        for p in pl.procs:
            free[p] = new_pl.end
    return IterationSchedule(new_placements, name=f"{iteration.name}@{state}")


def replay_pipelined(
    iteration: IterationSchedule,
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
) -> PipelinedSchedule:
    """Replay a structure under ``state`` and re-pipeline it.

    The initiation interval is recomputed for the stretched pattern (the
    runtime must slow the digitizer to the new sustainable rate, or frames
    would back up exactly as in the saturated tuning-curve region).
    """
    replayed = replay_with_state(iteration, graph, state, cluster, comm)
    return best_pipelined(replayed, cluster, name=f"M[{replayed.name}]")
