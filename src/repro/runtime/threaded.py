"""The live runtime: real Python threads over thread-safe STM channels.

Stampede's execution model — tasks communicating through STM on an SMP
node — run for real: a threaded run is one
:class:`~repro.runtime.live.LiveNode` holding every channel (a
:class:`~repro.stm.threaded.ThreadedChannel` each), and each task's
``compute`` kernel (real NumPy code for the tracker) actually executes.
Given a schedule, the node runs one thread per *lane* — the placements
that occupy one processor, in start order, one frame at a time through
all of them, a data-parallel placement's chunks in each of its lanes — so
a task cannot run ahead of the processor it shares; without one, every
task is its own lane.  Why lanes cannot
deadlock is argued in :mod:`repro.runtime.live`.  The node collects
itself: a terminal channel is drained in its producer's lane.  What is
this runtime's own: the static fill.

This runtime demonstrates the programming model end to end and powers the
kernel-calibration path; it is *not* used for latency experiments, because
the GIL makes wall-clock timing unrepresentative of an SMP (see
DESIGN.md §2).  Frames are processed in order and the item count is known
up front, so threads terminate naturally; the node poisons every channel
on failure so no thread is left blocked.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    LiveNode,
    check_static_inputs,
    check_timestamps,
    merge_reports,
    schedule_slots,
    terminal_channels,
)
from repro.runtime.result import ExecutionResult
from repro.sim.trace import TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.schedule import PipelinedSchedule, ScheduleSolution
    from repro.obs import Observability

__all__ = ["ThreadedRuntime"]


class ThreadedRuntime:
    """Run a task graph with real threads and real kernels.

    Parameters
    ----------
    graph:
        Validated task graph whose tasks carry ``compute`` kernels
        (tasks without one pass their merged inputs through unchanged).
    state:
        Application state handed to every kernel.
    static_inputs:
        Values for static channels, e.g. ``{"color_model": models}``.
    op_timeout:
        Per-operation blocking timeout in seconds (keeps tests from
        hanging on bugs).
    schedule:
        Optional :class:`~repro.core.schedule.PipelinedSchedule` (or full
        :class:`~repro.core.schedule.ScheduleSolution`) that places every
        task: its placements' processors are the node's lanes, and a
        kernel execution records one span per processor it occupies,
        carrying its placement's variant.
        Without one every task is its own lane.
    obs:
        Optional :class:`~repro.obs.Observability` bundle, subscribed to
        the run's trace.  It hears every kernel invocation (one span per
        processor it occupies, back to back) and every channel operation as it is recorded,
        on the run's clock, and every completed frame with its latency
        after the run; this is the live-measurement path behind kernel
        calibration — the ``obs`` experiment reports the measured
        overhead.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        static_inputs: Optional[dict[str, Any]] = None,
        op_timeout: float = 60.0,
        schedule: Optional[Union["PipelinedSchedule", "ScheduleSolution"]] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.state = state
        self.static_inputs = dict(static_inputs or {})
        self.op_timeout = op_timeout
        self.obs = obs
        self.slots = None if schedule is None else schedule_slots(graph, schedule)
        check_static_inputs(graph, self.static_inputs)

    def run(self, timestamps: int) -> ExecutionResult:
        """Process ``timestamps`` frames in order; the terminal channels'
        items are ``meta["outputs"]`` of the result."""
        check_timestamps(timestamps)
        node = LiveNode(
            self.graph.tasks, build_task_plans(self.graph),
            {spec.name: spec.capacity for spec in self.graph.channels},
            self.state, timestamps, self.op_timeout,
            collect=tuple(terminal_channels(self.graph)), slots=self.slots,
            observe=self.obs is not None,
        )
        # Static configuration channels are filled before any thread starts.
        for name, value in self.static_inputs.items():
            channel = node.channels[name]
            channel.put(channel.attach_output("-env-"), 0, value)
        if self.obs is not None:
            node.trace.subscribe(self.obs.on_record)
        report = node.run()
        wall = _time.perf_counter() - node.stamps.t0
        return merge_reports(self.graph, self.state, timestamps, [report],
                             TraceRecorder(), wall, self.obs,
                             meta={"substrate": "threaded"})
