"""The live runtime: real Python threads over thread-safe STM channels.

Stampede's execution model — "each task is a POSIX thread" communicating
through STM — run for real: a threaded run is one
:class:`~repro.runtime.live.LiveNode` holding every channel (a
:class:`~repro.stm.threaded.ThreadedChannel` each), every task a Python
thread through the node's one task body, and each task's ``compute``
kernel (real NumPy code for the tracker) actually executes.  The node
collects itself: each terminal channel is drained by a collector, a sink
task through the same body.  What is this runtime's own: the static fill
and the race checker it threads through the node.

This runtime demonstrates the programming model end to end and powers the
kernel-calibration path; it is *not* used for latency experiments, because
the GIL makes wall-clock timing unrepresentative of an SMP (see
DESIGN.md §2).  Frames are processed in order and the item count is known
up front, so threads terminate naturally; the node poisons every channel
on failure so no thread is left blocked.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Any, Optional

from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    LiveNode,
    LiveResult,
    check_static_inputs,
    check_timestamps,
    merge_reports,
    terminal_channels,
)
from repro.sim.trace import TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.race import RaceChecker
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
    obs:
        Optional :class:`~repro.obs.Observability` bundle, subscribed to
        the run's trace.  It hears every kernel invocation (one span per
        (task, timestamp)) and every channel operation as it is recorded,
        on the run's clock, and every completed frame with its latency
        after the run; this is the live-measurement path behind kernel
        calibration — the ``obs`` experiment reports the measured
        overhead.
    analysis:
        Optional :class:`~repro.analysis.race.RaceChecker`.  Channels are
        created with tracked locks and message edges, and thread
        start/join add fork/adopt edges, so a clean run reports zero
        races; read findings with ``analysis.report()`` after :meth:`run`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        static_inputs: Optional[dict[str, Any]] = None,
        op_timeout: float = 60.0,
        obs: Optional["Observability"] = None,
        analysis: Optional["RaceChecker"] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.state = state
        self.static_inputs = dict(static_inputs or {})
        self.op_timeout = op_timeout
        self.obs = obs
        self.analysis = analysis
        check_static_inputs(graph, self.static_inputs)

    def run(self, timestamps: int) -> LiveResult:
        """Process ``timestamps`` frames in order; returns terminal outputs."""
        check_timestamps(timestamps)
        node = LiveNode(
            self.graph.tasks, build_task_plans(self.graph),
            {spec.name: spec.capacity for spec in self.graph.channels},
            self.state, timestamps, self.op_timeout,
            collect=tuple(terminal_channels(self.graph)),
            observe=self.obs is not None, analysis=self.analysis,
        )
        # Static configuration channels are filled before any thread starts.
        for name, value in self.static_inputs.items():
            channel = node.channels[name]
            channel.put(channel.attach_output("-env-"), 0, value)
        if self.obs is not None:
            node.trace.subscribe(self.obs.on_record)
        report = node.run()
        wall = _time.perf_counter() - node.stamps.t0
        return merge_reports([report], TraceRecorder(), wall, self.obs)
