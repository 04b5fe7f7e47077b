"""What the two live substrates share: one node body, one frame loop, one result.

Stampede's execution model (§3.3) is one loop per task — get, compute,
put, consume per timestamp through STM — each task a thread on an SMP
node.  The live unit of that loop is the *step*: hand over frame
``ts - 1``'s puts and consumes, fetch frame ``ts``'s gets.
:func:`run_frames` is that loop and :func:`make_exchange` that step, each
written once.  The step runs a task's *local* channel ends inline
(:class:`~repro.stm.threaded.ThreadedChannel`: the channel lives in the
task's own process) and ships its *boundary* ends — the channels some
other process shares — as one batch (:class:`~repro.stm.process.
StepBatch`, one step of the broker's one op), committed only when it
holds something.

:class:`LiveNode` is one process's share of a live run: its channels,
its tasks as threads through the one task body, and the
:class:`NodeReport` it returns after joining them.  A collector — the
reader that drains a terminal channel into the run's outputs — is a sink
task: the same body, whose kernel keeps each value and when it arrived.
A :class:`~repro.runtime.threaded.ThreadedRuntime` run is one node with
every channel local that collects itself; a
:class:`~repro.runtime.process.ProcessRuntime` worker is one node whose
boundary ends reach the parent's broker, so a frame crosses the broker
only where its data crosses a node boundary, and the parent runs one
more node, with no tasks, whose collectors reach the broker in-process.
:func:`merge_reports` turns node reports into the run's
:class:`LiveResult` on both.

Beside them sit the pieces both runtimes (and ``StaticExecutor``'s live
adapter) need exactly once: the digitize stamps, the configuration
checks, the terminal-channel list and the per-frame completion merge.  A
live run's records go into its own :class:`~repro.sim.trace.
TraceRecorder`, on the run's clock (seconds since it started): one
:class:`~repro.sim.trace.ExecSpan` per kernel execution always, and —
only when an ``obs`` bundle listens, so that an unobserved run does no
per-operation work for it — one :class:`~repro.sim.trace.ItemEvent` per
STM operation.
"""
from __future__ import annotations

import threading
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskPlan
from repro.sim.trace import ExecSpan, ItemEvent, TraceRecorder
from repro.state import State
from repro.stm.process import StepBatch
from repro.stm.threaded import ChannelPoisoned, ThreadedChannel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.race import RaceChecker

__all__ = [
    "ChannelEnds",
    "FrameStamps",
    "LiveNode",
    "LiveResult",
    "NodeReport",
    "check_static_inputs",
    "check_timestamps",
    "make_exchange",
    "merge_completion",
    "merge_reports",
    "report_frames",
    "run_frames",
    "terminal_channels",
]

#: ``(timestamp, kernel result)`` of the frame a step hands over.
Done = Optional[tuple[int, dict]]

#: The task name a collector attaches under, on every substrate.
COLLECTOR = "-collector-"


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

    The runtime drains these itself (one collector, a sink task, each)
    and returns their items as the run's outputs.
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
    ``t0``: when the last of a source's puts for the frame landed, and the
    latest one when a graph has several sources.  A landing, not the
    moment the source got round to stamping, so every completion is at or
    after its frame's digitize stamp by causality.
    """

    def __init__(self, t0: float = 0.0) -> None:
        self.t0 = t0
        self.times: dict[int, float] = {}
        self._lock = threading.Lock()

    def stamp(self, ts: int, landed: float) -> None:
        """Frame ``ts``'s last put landed at ``landed`` (a
        ``time.perf_counter()`` reading)."""
        at = landed - self.t0
        with self._lock:
            if at > self.times.get(ts, 0.0):
                self.times[ts] = at


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
    gets — local ends inline, boundary ends queued on the batch
    ``new_batch()`` returns, committed after the local consumes and before
    the local gets (an empty batch costs no round trip; a task with no
    boundary end never asks for one).  A source stamps the frame with
    when its last put landed: the batch's at the broker (``batch.landed``;
    a batch that reports none leaves the local one) when it has boundary
    outputs, else its last local one.  Every put of a frame
    precedes every consume of it, as on threads, and the broker applies a
    batch's consumes on arrival even while its puts or gets park — so
    bounded channels cannot deadlock on the deferral in either half.

    ``statics`` is merged under every frame's streaming inputs.
    """
    fetched = [name for name, _, _ in boundary.ins]
    crosses = bool(boundary.outs or boundary.ins)
    stamped = plan.is_source and bool(plan.outputs)

    def exchange(done: Done, ts: Optional[int]) -> Optional[dict]:
        batch = new_batch() if crosses else None
        landed = None
        if done is not None:
            done_ts, result = done
            for name, channel, conn in local.outs:
                landed = channel.put(conn, done_ts, result[name], timeout=op_timeout)
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
        if done is not None and stamped:
            if boundary.outs:
                landed = getattr(batch, "landed", landed)
            stamps.stamp(done_ts, landed)
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


@dataclass
class NodeReport:
    """One node's share of a live run, as :meth:`LiveNode.join` returns it
    (and a process worker ships it to the parent in its ``done`` message):
    its channels' counters, its sources' stamps, its kernel spans and item
    events, and what its collectors drained (``outputs`` / ``arrivals``,
    by terminal channel).  The process broker's counters are one more."""

    channel_stats: dict[str, dict[str, int]]
    gc_collected: int
    live_item_high_water: int
    digitize_times: dict[int, float] = field(default_factory=dict)
    spans: list[ExecSpan] = field(default_factory=list)
    items: list[ItemEvent] = field(default_factory=list)
    kernel_retries: int = 0
    outputs: dict[str, dict[int, Any]] = field(default_factory=dict)
    arrivals: dict[str, dict[int, float]] = field(default_factory=dict)


@dataclass(eq=False)
class LiveNode:
    """One process's share of a live run: its tasks, one thread each.

    Builds one :class:`~repro.stm.threaded.ThreadedChannel` per entry of
    ``capacities`` (``{name: capacity}``) and attaches every task's
    connections to them at once — before any thread starts, because
    reference-count GC considers only attached input connections, so a
    consumer that attached late could find its items already collected.
    A task's channel that is not the node's is a *boundary* channel, at the
    broker behind :meth:`start`'s ``link``, reached through the broker
    connection ids in ``remote`` (``{task: {channel: conn id}}``).

    ``collect`` names the terminal channels the node drains: one collector
    each, a sink task attached as ``-collector-`` (its boundary conn ids
    under that name in ``remote``) whose kernel keeps each value and when
    it arrived, on the run's clock, and records no span.

    Each thread reads its static inputs, builds its local and boundary
    :class:`ChannelEnds`, and runs :func:`make_exchange` and
    :func:`run_frames` from ``resume`` (``{task: first timestamp}``; a node
    that resumes is a respawned worker, whose boundary puts replay
    idempotently), a task recording one :class:`~repro.sim.trace.ExecSpan`
    per kernel call into :attr:`trace` on the run's clock: seconds since
    ``t0`` (the moment of :meth:`start` when ``None``).  ``where`` is
    ``{task: (proc, variant)}`` for those spans; without it ``proc`` is the
    task's row, filed under the ``"nominal"`` node class.  ``observe``
    records the node's channel operations too.  ``analysis`` threads a
    :class:`~repro.analysis.race.RaceChecker` through: tracked channel
    locks, and fork/adopt edges at thread start and join.

    A thread that leaves early poisons the node's channels, so no sibling
    waits out ``op_timeout``; one that raises also reports to the broker
    at once (``fatal``), which poisons the boundary channels.
    """

    tasks: list[Task]
    plans: dict[str, TaskPlan]
    capacities: dict[str, Optional[int]]
    state: State
    timestamps: int
    op_timeout: float
    remote: dict[str, dict[str, int]] = field(default_factory=dict)
    collect: tuple[str, ...] = ()
    resume: Optional[dict[str, int]] = None
    where: Optional[dict[str, tuple[int, str]]] = None
    t0: Optional[float] = None
    observe: bool = False
    analysis: Optional["RaceChecker"] = None

    def __post_init__(self) -> None:
        self.channels = {
            name: ThreadedChannel(name, capacity=capacity, analysis=self.analysis)
            for name, capacity in self.capacities.items()
        }
        #: each task's connections to the node's channels, by channel
        self.conns = {
            t.name: {
                **{ch: self.channels[ch].attach_input(t.name)
                   for ch in t.inputs if ch in self.channels},
                **{ch: self.channels[ch].attach_output(t.name)
                   for ch in t.outputs if ch in self.channels},
            }
            for t in self.tasks
        }
        self.conns[COLLECTOR] = {ch: self.channels[ch].attach_input(COLLECTOR)
                                 for ch in self.collect if ch in self.channels}
        self.trace = TraceRecorder()
        self.stamps = FrameStamps()
        self.kernel_retries = 0
        self.errors: list[BaseException] = []
        self._lock = threading.Lock()
        self._link = None
        self._threads: list[threading.Thread] = []
        self._end_tokens: list = []
        self._outputs: dict[str, dict[int, Any]] = {ch: {} for ch in self.collect}
        self._arrivals: dict[str, dict[int, float]] = {ch: {} for ch in self.collect}

    def run(
        self,
        link=None,
        invoke: Optional[Callable[[Task, dict, int], dict]] = None,
    ) -> NodeReport:
        """:meth:`start` then :meth:`join`."""
        self.start(link, invoke)
        return self.join()

    def start(
        self,
        link=None,
        invoke: Optional[Callable[[Task, dict, int], dict]] = None,
    ) -> None:
        """Start every task and collector thread.

        ``link`` reaches the broker (a :class:`~repro.stm.process.
        WorkerLink` or :class:`~repro.stm.process.LocalLink`; none when
        every channel is the node's).  ``invoke(task, inputs, ts)`` executes
        one kernel call (default: ``task.compute(state, inputs)``).
        """
        self._link = link
        invoke = invoke or (
            lambda task, inputs, ts: task.compute(self.state, inputs))
        checker = self.analysis

        def spawn(name: str, body, *args) -> threading.Thread:
            # Fork/join happens-before edges for the race checker: setup
            # before start (the static fill) happens-before the thread's
            # work, and its work happens-before post-join reads.
            token = checker.fork() if checker is not None else None

            def guarded() -> None:
                if token is not None:
                    checker.adopt(token)
                try:
                    body(*args)
                except ChannelPoisoned:
                    self._leave()
                except BaseException as exc:  # noqa: BLE001 - re-raised by join
                    self._leave(exc)
                if checker is not None:
                    with self._lock:
                        self._end_tokens.append(checker.fork())

            return threading.Thread(target=guarded, name=name, daemon=True)

        self._threads = [spawn(f"task:{t.name}", self._task_body, t, invoke)
                         for t in self.tasks]
        self._threads += [spawn(f"collect:{ch}", self._collect_body, ch)
                          for ch in self.collect]
        t0 = self.stamps.t0 = (
            _time.perf_counter() if self.t0 is None else self.t0
        )
        if self.observe:
            # after any static fill: configuration is not a frame's traffic
            for ch in self.channels.values():
                ch.record_into(self.trace, t0)
        for th in self._threads:
            th.start()

    def join(self) -> NodeReport:
        """Wait for every thread; returns the node's report.

        Raises the first error a thread raised, or
        :class:`~repro.errors.ReproError` when threads outlive
        ``op_timeout`` per frame.
        """
        for th in self._threads:
            th.join(timeout=self.op_timeout * (self.timestamps + 2))
        alive = [th.name for th in self._threads if th.is_alive()]
        if alive:
            for ch in self.channels.values():
                ch.poison()
            raise ReproError(f"threads did not finish: {alive}")
        if self.errors:
            raise self.errors[0]
        for token in self._end_tokens:
            self.analysis.adopt(token)
        channels = self.channels.values()
        return NodeReport(
            channel_stats={name: ch.stats for name, ch in self.channels.items()},
            gc_collected=sum(ch.gc_stats.collected for ch in channels),
            live_item_high_water=sum(ch.gc_stats.high_water_items
                                     for ch in channels),
            digitize_times=self.stamps.times,
            spans=self.trace.spans,
            items=self.trace.items,
            kernel_retries=self.kernel_retries,
            outputs=self._outputs,
            arrivals=self._arrivals,
        )

    def _leave(self, error: Optional[BaseException] = None) -> None:
        """A thread is leaving early: let no sibling wait it out."""
        for ch in self.channels.values():
            ch.poison()
        if error is None:
            return
        with self._lock:
            self.errors.append(error)
            first = len(self.errors) == 1
        if first and self._link is not None:
            self._link.notify("fatal", "".join(traceback.format_exception(error)))

    def _task_body(self, task: Task,
                   invoke: Callable[[Task, dict, int], dict]) -> None:
        plan = self.plans[task.name]
        if self.where is None:
            proc, variant, node_class = plan.index, "serial", "nominal"
        else:
            (proc, variant), node_class = self.where[task.name], None
        t0, trace = self.stamps.t0, self.trace

        def run_kernel(inputs: dict, ts: int) -> dict:
            k0 = _time.perf_counter() - t0
            result = invoke(task, inputs, ts)
            k1 = _time.perf_counter() - t0
            trace.record_span(ExecSpan(proc, task.name, ts, k0, k1,
                                       variant=variant, node_class=node_class))
            return result

        has_kernel = task.compute is not None or task.compute_chunk is not None
        self._run(plan, run_kernel if has_kernel else None)

    def _collect_body(self, channel: str) -> None:
        values, arrivals = self._outputs[channel], self._arrivals[channel]
        t0 = self.stamps.t0

        def keep(inputs: dict, ts: int) -> dict:
            values[ts] = inputs[channel]
            arrivals[ts] = _time.perf_counter() - t0
            return {}

        self._run(TaskPlan(COLLECTOR, (), (channel,), (), -1, False), keep)

    def _run(self, plan: TaskPlan, kernel) -> None:
        """One thread's frames: static reads, then :func:`run_frames` over
        :func:`make_exchange`, the boundary ends on one
        :class:`~repro.stm.process.StepBatch`."""
        local, timeout = self.channels, self.op_timeout
        conns, remote = self.conns[plan.name], self.remote.get(plan.name, {})
        batch = StepBatch(self._link, replay=self.resume is not None) if remote else None
        # Static inputs: local ones read inline, the broker's in one step
        # for all of them (none for a task that reads none).
        statics = {ch: local[ch].get(conns[ch], 0, timeout=timeout)[1]
                   for ch in plan.static_inputs if ch in local}
        far = [ch for ch in plan.static_inputs if ch not in local]
        if far:
            for ch in far:
                batch.get(ch, remote[ch], 0)
            statics.update(zip(far, (v for _, v in batch.commit(timeout=timeout))))
        exchange = make_exchange(
            plan, ChannelEnds.of(plan, local, conns, conns), statics, timeout,
            self.stamps, ChannelEnds.of(plan, dict(zip(remote, remote)), remote, remote),
            lambda: batch,
        )
        run_frames(plan, exchange, kernel,
                   (self.resume or {}).get(plan.name, 0), self.timestamps)
        if batch is not None:
            batch.close()


def merge_reports(
    reports,
    trace: TraceRecorder,
    wall_time: float,
    obs=None,
    *,
    respawns: int = 0,
    meta: Optional[dict] = None,
) -> LiveResult:
    """The run's :class:`LiveResult` from its nodes' reports.

    Counters, collected outputs and arrivals are unioned and summed,
    stamps merged (latest source wins), the item events and the spans (by
    start) recorded into ``trace``, and every completed frame reported to
    ``obs``.
    """
    stats: dict[str, dict[str, int]] = {}
    outputs: dict[str, dict[int, Any]] = {}
    arrivals: dict[str, dict[int, float]] = {}
    collected = high_water = retries = 0
    digitize: dict[int, float] = {}
    spans: list[ExecSpan] = []
    for report in reports:
        stats.update(report.channel_stats)
        outputs.update(report.outputs)
        arrivals.update(report.arrivals)
        collected += report.gc_collected
        high_water += report.live_item_high_water
        retries += report.kernel_retries
        for ts, at in report.digitize_times.items():
            digitize[ts] = max(digitize.get(ts, 0.0), at)
        for event in report.items:
            trace.record_item(event)
        spans += report.spans
    spans.sort(key=lambda s: (s.start, s.proc))
    for span in spans:
        trace.record_span(span)
    digitize = dict(sorted(digitize.items()))
    completion = merge_completion(arrivals)
    report_frames(obs, digitize, completion)
    return LiveResult(
        outputs=outputs,
        wall_time=wall_time,
        channel_stats=stats,
        digitize_times=digitize,
        completion_times=completion,
        trace=trace,
        respawns=respawns,
        kernel_retries=retries,
        meta={**(meta or {}), "gc_collected": collected,
              "live_item_high_water": high_water},
    )
