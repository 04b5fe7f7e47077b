"""The one result object: every executor and both live runtimes return it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.graph.taskgraph import TaskGraph
from repro.sim.trace import TraceRecorder
from repro.state import State

__all__ = ["ExecutionResult"]


@dataclass
class ExecutionResult:
    """Everything an execution produced, ready for the metrics layer.

    Times are on the run's clock: simulated seconds on the DES, wall-clock
    seconds since the run started on a live substrate.

    Attributes
    ----------
    graph / state:
        What was executed and under which application state.
    trace:
        Every execution span and channel item event.
    digitize_times:
        Map ``timestamp -> time`` the source task emitted the
        frame.  Latency for a timestamp is measured from here (the paper:
        "the time interval between placing a frame into the Video Frame
        channel and reading all of its detected target locations").
    completion_times:
        Map ``timestamp -> time`` the final sink finished it.
    horizon:
        Time the execution covered (a live run's wall time).
    emitted:
        Total timestamps the source produced (>= completed; the difference
        is skipped/unfinished frames).
    gc_collected / live_item_high_water:
        Space-footprint accounting from the channels.
    meta:
        Executor-specific extras (scheduler stats, slip counts, ...; a
        live run's terminal ``outputs``, ``channel_stats``, ``wall_time``,
        ``respawns``, ``kernel_retries`` and ``substrate``).
    """

    graph: TaskGraph
    state: State
    trace: TraceRecorder
    digitize_times: dict[int, float]
    completion_times: dict[int, float]
    horizon: float
    emitted: int
    gc_collected: int = 0
    live_item_high_water: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def completed(self) -> list[int]:
        """Timestamps that ran to completion, in order."""
        return sorted(self.completion_times)

    @property
    def completed_count(self) -> int:
        return len(self.completion_times)

    def latency(self, ts: int) -> Optional[float]:
        """End-to-end latency of one timestamp (None if not completed)."""
        if ts not in self.completion_times or ts not in self.digitize_times:
            return None
        return self.completion_times[ts] - self.digitize_times[ts]

    def latencies(self) -> list[float]:
        """Latencies of all completed timestamps, in timestamp order."""
        out = []
        for ts in self.completed:
            lat = self.latency(ts)
            if lat is not None:
                out.append(lat)
        return out

    def completion_sequence(self) -> list[float]:
        """Completion times sorted ascending (for inter-arrival analysis)."""
        return sorted(self.completion_times.values())

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(state={self.state}, emitted={self.emitted}, "
            f"completed={self.completed_count}, horizon={self.horizon:g}s)"
        )
