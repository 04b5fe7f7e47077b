"""What the two live substrates share: one node body, one frame loop, one result.

Stampede's execution model (§3.3) is one loop per task — get, compute,
put, consume per timestamp through STM.  A live node runs that loop for
its schedule's *processors*, not its tasks.  A *lane* is the placements
that occupy one processor, in start order, ties in topological order; one
thread per lane walks the frames in order and runs its placements in turn
— the paper's virtual processor that "processes one time-stamp through all
its tasks" (Figure 4(b)).  A data-parallel placement (``dp2`` over
processors ``(2, 3)``) is one step in each of its lanes, as Figure 9's
splitter, workers and joiner: its *primary* lane (``procs[0]``) does the
gets, hands the merged inputs to the others, runs chunk 0, collects their
partials, joins and puts; every other lane runs its own chunk.
:func:`schedule_slots` reads what a schedule tells a live node (each
task's node, processors and variant) once, for both runtimes; without a
schedule every task is its own lane.

The live unit of the loop is the *step*: hand over one placement's puts
and consumes, fetch the next placement's gets — in a one-task lane, the
same task's next frame.  :func:`run_frames` is that loop and
:func:`make_exchange` that step, each written once.  The step runs a
placement's *local* channel ends inline
(:class:`~repro.stm.threaded.ThreadedChannel`: the channel lives in the
lane's own process) and ships its *boundary* ends — the channels some
other process shares — as one batch (:class:`~repro.stm.process.
StepBatch`, one step of the broker's one op), committed only when it
holds something: local puts, local consumes, the commit, local gets.  So
a lane pays one round trip per placement that owns a boundary end, plus
one where a placement without any is followed by one that reads a
boundary channel.

Lanes cannot deadlock a run of a valid schedule.  A get waits only on a
placement with an earlier start in the same frame: earlier in its own
lane, and so already handed over, or in another lane.  A put blocked at
capacity waits only on consumes of older frames, and a lane hands over
frame ``ts - 1`` before it starts ``ts``.  Every lane of a data-parallel
placement reaches it in the same (start, topological) order, after its
own earlier starts of the frame, and the hand-off waits only on those: a
chunk lane on its primary's hand-out, the primary on the chunks of the
same frame; the hand-off channels are unbounded, and at most two frames
of one are alive, since the primary joins a frame before it hands out
the next.  So the blocked operation least in (frame, start) order waits
on nothing that is itself waiting.
The broker lands each put and get of a step as soon as it can and
applies its consumes on arrival, so a batch carrying one placement's
hand-over and the next one's fetch cannot park on itself.  A respawned
node resumes each task at its own ``resume`` frame; its lanes skip the
task until then.

:class:`LiveNode` is one process's share of a live run: its channels,
one thread per lane through the one lane body, and the
:class:`NodeReport` it returns after joining them.  A collector — the
reader that drains a terminal channel into the run's outputs — runs in
its producer's lane, right after it, when the channel has one producer
on the node; otherwise it is a sink task in a lane of its own, whose
kernel keeps each value and when it arrived.
A :class:`~repro.runtime.threaded.ThreadedRuntime` run is one node with
every channel local that collects itself; a
:class:`~repro.runtime.process.ProcessRuntime` worker is one node whose
boundary ends reach the parent's broker and that collects the terminal
channels its own tasks produce, so a frame crosses the broker only where
its data crosses a node boundary.  The parent runs one more node, with
no tasks, whose collectors drain the terminal channels left at the
broker in-process.
:func:`merge_reports` turns node reports into the run's
:class:`~repro.runtime.result.ExecutionResult` on both — the result every
substrate returns, the DES included.

Beside them sit the pieces both runtimes need exactly once: the digitize
stamps, the configuration checks, the terminal-channel list and the
per-frame completion merge.  A live run's records go into its own
:class:`~repro.sim.trace.TraceRecorder`, on the run's clock (seconds since it started): one
:class:`~repro.sim.trace.ExecSpan` per processor a kernel execution
occupies always, and —
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

from repro.core.schedule import ScheduleSolution
from repro.errors import ExecutorConfigError, ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskPlan
from repro.runtime.result import ExecutionResult
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
    "NodeReport",
    "Placed",
    "Slot",
    "check_static_inputs",
    "check_timestamps",
    "make_exchange",
    "merge_completion",
    "merge_reports",
    "report_frames",
    "run_frames",
    "schedule_slots",
    "terminal_channels",
]

#: ``(lane position, timestamp, kernel result)`` of the placement a step
#: hands over.
Done = Optional[tuple[int, int, dict]]

#: ``invoke(task, run, inputs, ts)``: how a primary lane executes one
#: placement, ``run(inputs, ts)`` (a process worker adds injected faults).
Invoke = Callable[[Task, Callable[[dict, int], dict], dict, int], dict]

#: The task name a collector attaches under, on every substrate.
COLLECTOR = "-collector-"


def check_static_inputs(graph: TaskGraph, static_inputs: dict[str, Any]) -> None:
    """``static_inputs`` holds a value for every static channel of ``graph``
    and for nothing else: no streaming channel, no unknown name."""
    static = {spec.name for spec in graph.channels if spec.static}
    for name in sorted(static ^ static_inputs.keys()):
        if name in static:
            raise ExecutorConfigError(
                f"static channel {name!r} needs a value in static_inputs"
            )
        raise ExecutorConfigError(
            f"static_inputs names {name!r}, not a static channel of the graph"
        )


def check_timestamps(timestamps: int) -> None:
    if timestamps < 1:
        raise ExecutorConfigError(f"timestamps must be >= 1, got {timestamps}")


def terminal_channels(graph: TaskGraph) -> list[str]:
    """Streaming channels some task produces and none consumes.

    The runtime drains these itself (one collector each, in its
    producer's lane) and returns their items as the run's outputs.
    """
    return [
        spec.name
        for spec in graph.channels
        if not spec.static and not graph.consumers(spec.name)
        and graph.producers(spec.name)
    ]


class Slot(NamedTuple):
    """What a schedule tells a live node about one task: the cluster node
    of its primary processor, the processors it occupies (the primary's
    lane first, one a chunk of a data-parallel variant) and its variant."""

    node: int
    procs: tuple[int, ...]
    variant: str


def schedule_slots(graph: TaskGraph, schedule, cluster=None) -> dict[str, Slot]:
    """Each task's :class:`Slot` under ``schedule`` (a
    :class:`~repro.core.schedule.PipelinedSchedule` or a full
    :class:`~repro.core.schedule.ScheduleSolution`), in lane order: by
    start in the iteration pattern, ties in topological order, so a lane
    never runs a consumer before a producer of a valid schedule.  The
    shift is ignored: iteration *k* only rotates the pattern's processors.
    ``node`` is ``cluster.node_of`` the primary processor, 0 without a
    cluster.

    Refused with :class:`~repro.errors.ExecutorConfigError`, before any
    thread or worker exists: a data-parallel placement whose processors
    span nodes of ``cluster`` (rule S004: its chunks hand off through one
    node's memory), and one of a task with a serial kernel but no
    ``compute_chunk`` (its width could not run)."""
    if isinstance(schedule, ScheduleSolution):
        schedule = schedule.pipelined
    placed = {pl.task: pl for pl in schedule.iteration.placements}
    missing = [t.name for t in graph.tasks if t.name not in placed]
    if missing:
        raise ReproError(f"schedule places no tasks {missing}")
    topo = {name: i for i, name in enumerate(graph.topo_order())}
    node_of = cluster.node_of if cluster is not None else (lambda proc: 0)
    slots = {}
    for name in sorted(topo, key=lambda name: (placed[name].start, topo[name])):
        pl, task = placed[name], graph.task(name)
        nodes = sorted({node_of(proc) for proc in pl.procs})
        if len(nodes) > 1:
            raise ExecutorConfigError(f"S004: {name!r} ({pl.variant}) spans nodes {nodes} "
                                      f"with procs {list(pl.procs)}")
        if pl.workers > 1 and task.compute is not None and task.compute_chunk is None:
            raise ExecutorConfigError(f"{name!r} is placed {pl.variant} but has no "
                                      f"compute_chunk to run its width")
        slots[name] = Slot(nodes[0], pl.procs, pl.variant)
    return slots


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


class Placed(NamedTuple):
    """One placement of a lane, as its step and frame loop see it.

    ``kernel(inputs, ts)`` computes one frame (``None`` passes the merged
    inputs through to every output); ``local`` / ``boundary`` are its
    :class:`ChannelEnds` on either side of the process boundary;
    ``statics`` is merged under every frame's streaming inputs; ``first``
    is the first frame it runs (later than the lane's on a respawned
    node).  ``taps`` are the collectors drained right after it: ``(local
    channel, connection, keep)``, ``keep(ts, value)`` taking each item
    before it is consumed.
    """

    plan: TaskPlan
    kernel: Optional[Callable[[dict, int], Any]] = None
    local: ChannelEnds = ChannelEnds()
    boundary: ChannelEnds = ChannelEnds()
    statics: dict = {}
    first: int = 0
    taps: tuple = ()


def make_exchange(
    lane: list[Placed],
    op_timeout: float,
    stamps: FrameStamps,
    new_batch: Optional[Callable[[], Any]] = None,
) -> Callable[[Done, Optional[int], Optional[int]], Optional[dict]]:
    """The step of one lane, as :func:`run_frames` calls it.

    ``exchange(done, nxt, ts)`` hands over the placement ``done`` names
    and fetches frame ``ts`` of placement ``lane[nxt]``: puts, consumes,
    then gets — local ends inline, boundary ends queued on the batch
    ``new_batch()`` returns, committed after the local consumes and before
    the local gets (an empty batch costs no round trip; a step whose two
    placements have no boundary end never asks for one).  A source stamps
    the frame with when its last put landed: the batch's at the broker
    (``batch.landed``; a batch that reports none leaves the local one)
    when it has boundary outputs, else its last local one.  The handed-
    over placement's taps then drain its terminal items.  Every put of a
    frame precedes every consume of it, as on threads, and the broker
    applies a batch's consumes on arrival even while its puts or gets
    park — so bounded channels cannot deadlock on the deferral in either
    half.
    """
    fetched = [[name for name, _, _ in placed.boundary.ins] for placed in lane]
    crosses = [bool(placed.boundary.outs or placed.boundary.ins) for placed in lane]
    stamped = [placed.plan.is_source and bool(placed.plan.outputs) for placed in lane]

    def exchange(done: Done, nxt: Optional[int], ts: Optional[int]) -> Optional[dict]:
        fetch = None if nxt is None else lane[nxt]
        batch = (new_batch() if (done is not None and crosses[done[0]])
                 or (fetch is not None and fetch.boundary.ins) else None)
        landed = None
        if done is not None:
            i, done_ts, result = done
            placed = lane[i]
            for name, channel, conn in placed.local.outs:
                landed = channel.put(conn, done_ts, result[name], timeout=op_timeout)
            for name, channel, conn in placed.boundary.outs:
                batch.put(channel, conn, done_ts, result[name])
            for _, channel, conn in placed.local.ins:
                channel.consume(conn, done_ts)
            for _, channel, conn in placed.boundary.ins:
                batch.consume(channel, conn, done_ts)
        if fetch is not None:
            for _, channel, conn in fetch.boundary.ins:
                batch.get(channel, conn, ts)
        values = batch.commit(timeout=op_timeout) if batch is not None else []
        if done is not None:
            if stamped[i]:
                if placed.boundary.outs:
                    landed = getattr(batch, "landed", landed)
                stamps.stamp(done_ts, landed)
            for channel, conn, keep in placed.taps:
                keep(done_ts, channel.get(conn, done_ts, timeout=op_timeout)[1])
                channel.consume(conn, done_ts)
        if fetch is None:
            return None
        inputs = dict(fetch.statics)
        inputs.update(zip(fetched[nxt], (value for _, value in values)))
        for name, channel, conn in fetch.local.ins:
            inputs[name] = channel.get(conn, ts, timeout=op_timeout)[1]
        return inputs

    return exchange


def run_frames(
    lane: list[Placed],
    exchange: Callable[[Done, Optional[int], Optional[int]], Optional[dict]],
    stop: int,
) -> None:
    """One lane's frame loop up to timestamp ``stop - 1``.

    Each frame runs the lane's placements in order, a placement from its
    own ``first`` frame on.  ``exchange(done, nxt, ts)`` is the
    substrate's step: ``done`` is the ``(lane position, timestamp,
    result)`` of the placement just computed (``None`` on the first call)
    whose outputs it puts and whose streaming inputs it consumes; ``nxt``
    and ``ts`` name the placement and frame whose merged inputs it returns
    (``None`` on the final call, which only flushes).  In a one-task lane
    that is ``(None, first), (first, first + 1), ..., (stop - 1, None)``.

    A placement's result is checked here, before anything is handed to
    the next exchange.
    """
    done: Done = None
    for ts in range(min((placed.first for placed in lane), default=stop), stop):
        for i, placed in enumerate(lane):
            if ts < placed.first:
                continue
            inputs = exchange(done, i, ts)
            plan = placed.plan
            if placed.kernel is None:
                result = {ch: inputs for ch in plan.outputs}
            else:
                result = placed.kernel(inputs, ts)
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
            done = i, ts, result
    if done is not None:
        exchange(done, None, None)


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
    """One process's share of a live run: its tasks, one thread per lane.

    Builds one :class:`~repro.stm.threaded.ThreadedChannel` per entry of
    ``capacities`` (``{name: capacity}``) and attaches every task's
    connections to them at once — before any thread starts, because
    watermark GC considers only attached input connections, so a
    consumer that attached late could find its items already collected.
    A task's channel that is not the node's is a *boundary* channel, at the
    broker behind :meth:`start`'s ``link``, reached through the broker
    connection ids in ``remote`` (``{task: {channel: conn id}}``).

    ``slots`` is :func:`schedule_slots`' reading of the run's schedule:
    the node's tasks run in lanes by processor, in the slots' order, a
    data-parallel slot in each lane it occupies, and each kernel span
    carries its slot's processor and ``variant``.  Without it every task
    is its own lane and a span's ``proc`` is the task's row, filed under
    the ``"nominal"`` node class.

    ``collect`` names the terminal channels the node drains, each through
    a collector attached as ``-collector-`` (its boundary conn ids under
    that name in ``remote``) that keeps each value and when it arrived,
    on the run's clock, and records no span: a tap right after the
    channel's producer in its lane when the node holds exactly one
    producer, else a sink task in a lane of its own.

    Each lane thread reads its placements' static inputs, builds their
    local and boundary :class:`ChannelEnds`, and runs :func:`make_exchange`
    and :func:`run_frames`, each task from ``resume`` (``{task: first
    timestamp}``; a node that resumes is a respawned worker, whose
    boundary puts replay idempotently), recording one
    :class:`~repro.sim.trace.ExecSpan` per kernel call and processor it
    occupies into :attr:`trace` on the run's clock: seconds since ``t0``
    (the moment of :meth:`start` when ``None``).  A data-parallel slot's
    chunks hand off through node-private channels (:meth:`_data_parallel`)
    that no report counts.  ``observe`` records the node's channel
    operations too.  ``analysis`` threads a
    :class:`~repro.analysis.race.RaceChecker` through: tracked channel
    locks, and fork/adopt edges at thread start and join.

    A thread that leaves early poisons the node's channels, its hand-off
    channels included, so no sibling waits out ``op_timeout``; one that
    raises also reports to the broker at once (``fatal``), which poisons
    the boundary channels.
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
    slots: Optional[dict[str, Slot]] = None
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
        self._handoff: list[ThreadedChannel] = []
        self._lock = threading.Lock()
        self._link = None
        self._threads: list[threading.Thread] = []
        self._end_tokens: list = []
        self._outputs: dict[str, dict[int, Any]] = {ch: {} for ch in self.collect}
        self._arrivals: dict[str, dict[int, float]] = {ch: {} for ch in self.collect}

    def run(self, link=None, invoke: Optional[Invoke] = None) -> NodeReport:
        """:meth:`start` then :meth:`join`."""
        self.start(link, invoke)
        return self.join()

    def start(self, link=None, invoke: Optional[Invoke] = None) -> None:
        """Start every lane's thread.

        ``link`` reaches the broker (a :class:`~repro.stm.process.
        WorkerLink` or :class:`~repro.stm.process.LocalLink`; none when
        every channel is the node's).  ``invoke(task, run, inputs, ts)``
        executes one placement of ``task`` at its primary lane, ``run(inputs,
        ts)`` — the serial kernel, or a data-parallel slot's hand-out,
        chunk 0 and join (default: calls it).
        """
        self._link = link
        invoke = invoke or (lambda task, run, inputs, ts: run(inputs, ts))
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

        t0 = self.stamps.t0 = (
            _time.perf_counter() if self.t0 is None else self.t0
        )
        self._threads = [spawn(name, self._run, lane)
                         for name, lane in self._lanes(invoke).items()]
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
            self._leave()
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
        for ch in (*self.channels.values(), *self._handoff):
            ch.poison()
        if error is None:
            return
        with self._lock:
            self.errors.append(error)
            first = len(self.errors) == 1
        if first and self._link is not None:
            self._link.notify("fatal", "".join(traceback.format_exception(error)))

    def _lanes(self, invoke: Invoke) -> dict[str, list[Placed]]:
        """``{thread name: placements}``: the node's tasks in lanes (in slot
        order, a slot in the lane of each processor it occupies; each task
        its own without slots), then a lane for each collector no
        producer's lane taps."""
        tasks = {t.name: t for t in self.tasks}
        taps: dict[str, list] = {}
        collectors = {}
        for ch in self.collect:
            keep = self._keeper(ch)
            producers = [t.name for t in self.tasks if ch in t.outputs]
            if len(producers) == 1:
                taps.setdefault(producers[0], []).append(
                    (self.channels[ch], self.conns[COLLECTOR][ch], keep))
            else:
                sink = TaskPlan(COLLECTOR, (), (ch,), (), -1, False)
                collectors[f"collect:{ch}"] = [Placed(
                    sink, lambda inputs, ts, ch=ch, keep=keep: keep(ts, inputs[ch]) or {})]
        lanes: dict[str, list[Placed]] = {}
        order = [name for name in self.slots if name in tasks] if self.slots else tasks
        for name in order:
            plan = self.plans[name]
            procs = self.slots[name].procs if self.slots else (name,)
            kernel, chunks = self._kernel(tasks[name], invoke)
            lanes.setdefault(f"lane:{procs[0]}", []).append(
                Placed(plan, kernel, taps=tuple(taps.get(name, ()))))
            # A chunk lane's step has no channel end; its plan keeps the
            # task's name, so it resumes with the task.
            for proc, chunk in zip(procs[1:], chunks):
                lanes.setdefault(f"lane:{proc}", []).append(
                    Placed(TaskPlan(name, (), (), (), plan.index, False), chunk))
        return {**lanes, **collectors}

    def _kernel(self, task: Task, invoke: Invoke) -> tuple[Optional[Callable], list]:
        """``task``'s kernel as its primary lane calls it, recording one span
        a call and processor (``None`` for a task without one: it passes
        inputs through), and the chunk kernels of its other lanes."""
        if task.compute is None and task.compute_chunk is None:
            return None, []
        node_class = None if self.slots else "nominal"
        _, procs, variant = (self.slots[task.name] if self.slots
                             else Slot(0, (self.plans[task.name].index,), "serial"))
        state, t0, trace, lock = self.state, self.stamps.t0, self.trace, self._lock
        run, chunks = (self._data_parallel(task, len(procs)) if len(procs) > 1
                       else ((lambda inputs, ts: task.compute(state, inputs)), []))

        def run_kernel(inputs: dict, ts: int) -> dict:
            k0 = _time.perf_counter() - t0
            result = invoke(task, run, inputs, ts)
            k1 = _time.perf_counter() - t0
            # One span per processor, back to back as the DES writes them,
            # so a listener counts the copies as one execution.
            with lock:
                for proc in procs:
                    trace.record_span(ExecSpan(proc, task.name, ts, k0, k1,
                                               variant=variant, node_class=node_class))
            return result

        return run_kernel, chunks

    def _data_parallel(self, task: Task, width: int) -> tuple[Callable, list]:
        """A dp-``width`` slot of ``task``: the primary's run and each other
        lane's chunk kernel, handing off through node-private channels as
        Figure 9's splitter, workers and joiner — one *work* channel the
        primary puts each frame's merged inputs on, one *done* channel per
        chunk lane for its partial.  They are poisoned with the node's and
        count in no report."""
        name, state, timeout = task.name, self.state, self.op_timeout
        work = ThreadedChannel(f"{name}:work", analysis=self.analysis)
        dones = [ThreadedChannel(f"{name}:done{i}", analysis=self.analysis)
                 for i in range(1, width)]
        self._handoff += [work, *dones]
        hand_out = work.attach_output(name)
        collect = [done.attach_input(name) for done in dones]
        handed = [-1]  # the last frame handed out

        def run(inputs: dict, ts: int) -> dict:
            # A retry after the hand-out (a kernel error in chunk 0 or the
            # join) re-runs those over the partials the chunks already put.
            if handed[0] != ts:
                work.put(hand_out, ts, inputs, timeout=timeout)
                handed[0] = ts
            partials = [task.compute_chunk(state, inputs, 0, width)]
            partials += [done.get(conn, ts, timeout=timeout)[1]
                         for done, conn in zip(dones, collect)]
            result = task.compute_join(state, inputs, partials)
            for done, conn in zip(dones, collect):
                done.consume(conn, ts)
            return result

        chunks = []
        for i, done in enumerate(dones, 1):
            take, give = work.attach_input(f"{name}#{i}"), done.attach_output(f"{name}#{i}")

            def chunk(_: dict, ts: int, i=i, done=done, take=take, give=give) -> dict:
                inputs = work.get(take, ts, timeout=timeout)[1]
                done.put(give, ts, task.compute_chunk(state, inputs, i, width), timeout=timeout)
                work.consume(take, ts)
                return {}

            chunks.append(chunk)
        return run, chunks

    def _keeper(self, channel: str) -> Callable[[int, Any], None]:
        """What a collector of ``channel`` does with each item: keep it
        and when it arrived."""
        values, arrivals = self._outputs[channel], self._arrivals[channel]
        t0 = self.stamps.t0

        def keep(ts: int, value: Any) -> None:
            values[ts] = value
            arrivals[ts] = _time.perf_counter() - t0

        return keep

    def _run(self, placements: list[Placed]) -> None:
        """One lane's frames: static reads, then :func:`run_frames` over
        :func:`make_exchange`, the boundary ends on one
        :class:`~repro.stm.process.StepBatch`."""
        local, timeout = self.channels, self.op_timeout
        batch = (StepBatch(self._link, replay=self.resume is not None)
                 if any(self.remote.get(p.plan.name) for p in placements) else None)
        lane, far = [], []
        for placed in placements:
            plan = placed.plan
            conns, remote = self.conns[plan.name], self.remote.get(plan.name, {})
            # Static inputs: local ones read inline, the broker's in one
            # step for the whole lane (none for a lane that reads none).
            statics = {ch: local[ch].get(conns[ch], 0, timeout=timeout)[1]
                       for ch in plan.static_inputs if ch in local}
            for ch in plan.static_inputs:
                if ch not in local:
                    batch.get(ch, remote[ch], 0)
                    far.append((statics, ch))
            lane.append(placed._replace(
                local=ChannelEnds.of(plan, local, conns, conns),
                boundary=ChannelEnds.of(plan, dict(zip(remote, remote)), remote, remote),
                statics=statics, first=(self.resume or {}).get(plan.name, 0)))
        if far:
            for (statics, ch), (_, value) in zip(far, batch.commit(timeout=timeout)):
                statics[ch] = value
        run_frames(lane, make_exchange(lane, timeout, self.stamps, lambda: batch),
                   self.timestamps)
        if batch is not None:
            batch.close()


def merge_reports(
    graph: TaskGraph,
    state: State,
    timestamps: int,
    reports,
    trace: TraceRecorder,
    wall_time: float,
    obs=None,
    *,
    respawns: int = 0,
    meta: dict,
) -> ExecutionResult:
    """The run's :class:`~repro.runtime.result.ExecutionResult` from its
    nodes' reports.

    Counters, collected outputs and arrivals are unioned and summed,
    stamps merged (latest source wins), the item events and the spans (by
    start) recorded into ``trace``, and every completed frame reported to
    ``obs``.  The horizon is the wall time; ``meta`` holds the terminal
    ``outputs``, the ``channel_stats``, ``wall_time``, ``respawns`` and
    ``kernel_retries``, plus the caller's ``meta`` (its ``substrate``).
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
    return ExecutionResult(
        graph=graph,
        state=state,
        trace=trace,
        digitize_times=digitize,
        completion_times=completion,
        horizon=wall_time,
        emitted=timestamps,
        gc_collected=collected,
        live_item_high_water=high_water,
        meta={
            "outputs": outputs,
            "channel_stats": stats,
            "wall_time": wall_time,
            "respawns": respawns,
            "kernel_retries": retries,
            **meta,
        },
    )
