"""What the two live substrates share: one frame loop, one step, one result.

Stampede's execution model (§3.3) is one loop per task — get, compute,
put, consume per timestamp through STM.  The live unit of that loop is
the *step*: hand over frame ``ts - 1``'s puts and consumes, fetch frame
``ts``'s gets.  :func:`run_frames` is that loop and :func:`make_exchange`
that step, each written once.  The step runs a task's *local* channel
ends inline (:class:`~repro.stm.threaded.ThreadedChannel`: the channel
lives in the task's own process) and ships its *boundary* ends — the
channels some other process shares — as one batch
(:class:`~repro.stm.process.StepBatch`, one broker round trip), committed
only when it holds something.  :class:`~repro.runtime.threaded.
ThreadedRuntime` is the case "every channel is local"; a
:class:`~repro.runtime.process.ProcessRuntime` worker splits a task's ends
by where the schedule put the channel's other endpoints, so a frame
crosses the broker only where its data crosses a node boundary.

Beside the loop sit the pieces both runtimes (and ``StaticExecutor``'s
live adapter) need exactly once: the digitize stamps, the configuration
checks, the terminal-channel list, the per-frame completion merge, and
:class:`LiveResult`.  A live run's records go into its own
:class:`~repro.sim.trace.TraceRecorder`, on the run's clock (seconds since
it started): one :class:`~repro.sim.trace.ExecSpan` per kernel execution
always, and — only when an ``obs`` bundle listens, so that an unobserved
run does no per-operation work for it — one
:class:`~repro.sim.trace.ItemEvent` per STM operation.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskPlan
from repro.sim.trace import TraceRecorder

__all__ = [
    "ChannelEnds",
    "FrameStamps",
    "LiveResult",
    "check_static_inputs",
    "check_timestamps",
    "make_exchange",
    "merge_completion",
    "report_frames",
    "run_frames",
    "terminal_channels",
]

#: ``(timestamp, kernel result)`` of the frame a step hands over.
Done = Optional[tuple[int, dict]]


@dataclass
class LiveResult:
    """What a live run produced, on either substrate.

    Attributes
    ----------
    outputs:
        ``{channel: {timestamp: value}}`` for every *terminal* channel
        (streaming channels no task consumes — e.g. ``model_locations``).
    wall_time:
        Wall-clock seconds for the whole run.
    channel_stats:
        Per-channel put/get/consume/collected counters.
    digitize_times / completion_times:
        Per-frame wall-clock seconds relative to run start: when the
        source emitted the frame, and when every terminal channel had
        received it — the live counterparts of the simulated executors'
        fields, so latency metrics apply across substrates.
    trace:
        The run's :class:`~repro.sim.trace.TraceRecorder`: one
        :class:`~repro.sim.trace.ExecSpan` per kernel execution, seconds
        since run start (``proc`` is the task's index on threads and its
        scheduled primary processor on processes), the process
        substrate's detection and failover marks, and the item events of
        an observed run.
    respawns / kernel_retries:
        Fault-recovery counters (process substrate; 0 on threads).
    meta:
        Substrate-specific extras (the process runtime's placement and
        broker accounting).
    """

    outputs: dict[str, dict[int, Any]]
    wall_time: float
    channel_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    digitize_times: dict[int, float] = field(default_factory=dict)
    completion_times: dict[int, float] = field(default_factory=dict)
    trace: TraceRecorder = field(default_factory=TraceRecorder)
    respawns: int = 0
    kernel_retries: int = 0
    meta: dict = field(default_factory=dict)


def check_static_inputs(graph: TaskGraph, static_inputs: dict[str, Any]) -> None:
    """Every static channel of ``graph`` has a value to be filled with."""
    for spec in graph.channels:
        if spec.static and spec.name not in static_inputs:
            raise ExecutorConfigError(
                f"static channel {spec.name!r} needs a value in static_inputs"
            )


def check_timestamps(timestamps: int) -> None:
    if timestamps < 1:
        raise ExecutorConfigError(f"timestamps must be >= 1, got {timestamps}")


def terminal_channels(graph: TaskGraph) -> list[str]:
    """Streaming channels some task produces and none consumes.

    The runtime drains these itself (one collector each) and returns
    their items as the run's outputs.
    """
    return [
        spec.name
        for spec in graph.channels
        if not spec.static and not graph.consumers(spec.name)
        and graph.producers(spec.name)
    ]


def merge_completion(arrivals: dict[str, dict[int, float]]) -> dict[int, float]:
    """Per-frame completion: when the *last* terminal channel received it.

    ``arrivals`` is ``{terminal channel: {timestamp: arrival time}}``; a
    frame counts only once every terminal channel has it.
    """
    if not arrivals:
        return {}
    common = set.intersection(*(set(times) for times in arrivals.values()))
    return {ts: max(times[ts] for times in arrivals.values()) for ts in common}


def report_frames(
    obs, digitize_times: dict[int, float], completion_times: dict[int, float]
) -> None:
    """Report every completed frame to ``obs`` (``None`` = nobody listens)
    with its latency, completion minus digitize — on every substrate."""
    if obs is None:
        return
    for ts in sorted(completion_times):
        if ts in digitize_times:
            obs.on_frame(ts, completion_times[ts] - digitize_times[ts])


class ChannelEnds(NamedTuple):
    """One task's channel ends on one side of the process boundary.

    ``outs`` and ``ins`` are ``(name, channel, conn)`` triples in the
    plan's declared order; ``ins`` holds the *streaming* inputs only
    (static inputs are read once, before the loop).  Local triples carry a
    :class:`~repro.stm.threaded.ThreadedChannel` and its connection,
    boundary triples whatever the batch's ``put`` / ``consume`` / ``get``
    take for a channel and a connection.
    """

    outs: tuple = ()
    ins: tuple = ()

    @classmethod
    def of(cls, plan: TaskPlan, channels, conns_in, conns_out) -> "ChannelEnds":
        """``plan``'s ends on the channels in the mapping ``channels``
        (channels it does not hold are somebody else's side)."""
        return cls(
            outs=tuple((ch, channels[ch], conns_out[ch])
                       for ch in plan.outputs if ch in channels),
            ins=tuple((ch, channels[ch], conns_in[ch])
                      for ch in plan.stream_inputs if ch in channels),
        )


class FrameStamps:
    """Digitize stamps taken by one process's source tasks.

    ``times[ts]`` is when frame ``ts`` was emitted, in seconds since
    ``t0``: after *all* of a source's puts for the frame, and the latest
    one when a graph has several sources.
    """

    def __init__(self, t0: float = 0.0) -> None:
        self.t0 = t0
        self.times: dict[int, float] = {}
        self._lock = threading.Lock()

    def stamp(self, ts: int) -> None:
        now = _time.perf_counter() - self.t0
        with self._lock:
            if now > self.times.get(ts, 0.0):
                self.times[ts] = now


def make_exchange(
    plan: TaskPlan,
    local: ChannelEnds,
    statics: dict[str, Any],
    op_timeout: float,
    stamps: FrameStamps,
    boundary: ChannelEnds = ChannelEnds(),
    new_batch: Optional[Callable[[], Any]] = None,
) -> Callable[[Done, Optional[int]], Optional[dict]]:
    """The step of one task, as :func:`run_frames` calls it.

    For the frame handed over and the frame fetched: puts, consumes, then
    gets — local ends inline, boundary ends queued on one ``new_batch()``
    that is committed after the local consumes and before the local gets
    (an empty batch costs no round trip; a task with no boundary end
    never builds one).  A source's digitize stamp follows the commit, so
    it is taken after *all* of its puts on either side.  Every put of a
    frame precedes every consume of it, as on threads, and the broker
    applies a batch's consumes on arrival even while its puts or gets
    park — so bounded channels cannot deadlock on the deferral in either
    half.

    ``statics`` is merged under every frame's streaming inputs.
    """
    fetched = [name for name, _, _ in boundary.ins]
    crosses = bool(boundary.outs or boundary.ins)

    def exchange(done: Done, ts: Optional[int]) -> Optional[dict]:
        batch = new_batch() if crosses else None
        if done is not None:
            done_ts, result = done
            for name, channel, conn in local.outs:
                channel.put(conn, done_ts, result[name], timeout=op_timeout)
            for name, channel, conn in boundary.outs:
                batch.put(channel, conn, done_ts, result[name])
            for _, channel, conn in local.ins:
                channel.consume(conn, done_ts)
            for _, channel, conn in boundary.ins:
                batch.consume(channel, conn, done_ts)
        if ts is not None:
            for _, channel, conn in boundary.ins:
                batch.get(channel, conn, ts)
        values = batch.commit(timeout=op_timeout) if crosses else []
        if done is not None and plan.is_source:
            stamps.stamp(done_ts)
        if ts is None:
            return None
        inputs = dict(statics)
        if crosses:
            inputs.update(zip(fetched, (value for _, value in values)))
        for name, channel, conn in local.ins:
            inputs[name] = channel.get(conn, ts, timeout=op_timeout)[1]
        return inputs

    return exchange


def run_frames(
    plan: TaskPlan,
    exchange: Callable[[Done, Optional[int]], Optional[dict]],
    kernel: Optional[Callable[[dict, int], Any]],
    first: int,
    stop: int,
) -> None:
    """One task's frame loop over timestamps ``first .. stop - 1``.

    ``exchange(done, ts)`` is the substrate's step: ``done`` is the
    ``(timestamp, result)`` of the frame just computed (``None`` on the
    first call) whose outputs it puts and whose streaming inputs it
    consumes; ``ts`` is the frame whose merged inputs it returns (``None``
    on the final call, which only flushes).  It is called once per frame
    and once more to flush: ``(None, first), (first, first + 1), ...,
    (stop - 1, None)``.

    ``kernel(inputs, ts)`` computes one frame; ``None`` passes the merged
    inputs through to every output.  Its result is checked here, before
    anything is handed to the next exchange.
    """
    done: Done = None
    for ts in range(first, stop):
        inputs = exchange(done, ts)
        if kernel is None:
            result = {ch: inputs for ch in plan.outputs}
        else:
            result = kernel(inputs, ts)
            if not isinstance(result, dict):
                raise ReproError(
                    f"kernel of {plan.name!r} returned "
                    f"{type(result).__name__}, expected dict"
                )
            for ch in plan.outputs:
                if ch not in result:
                    raise ReproError(
                        f"kernel of {plan.name!r} produced no value for "
                        f"channel {ch!r}"
                    )
        done = ts, result
    if done is not None:
        exchange(done, None)
