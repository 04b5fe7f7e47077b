"""STM channels wired into the discrete-event simulator, and the one
simulated world the three DES executors run in.

A :class:`ChannelHub` couples one synchronous
:class:`~repro.stm.channel.STMChannel` with the simulation clock:

* ``wait_change()`` hands out an event that fires at the channel's next
  mutation, so a consumer can hang its next look on it until new data
  might exist.  The event is made when somebody asks for it and a mutation
  fires only an event that was asked for: a replay in which nobody waits
  pays nothing;
* puts respect the channel's capacity by *blocking the producer*
  (the flow-control mechanism §3.3 shows to be "totally inadequate" as a
  scheduling strategy — reproduced faithfully for the ablation).
  ``put`` refuses at capacity and the caller hangs its retry on
  ``wait_change()`` — the placement body's settle step (for ever in a
  static run, for a bounded time in a fault run) and the dynamic
  executor's threads alike, both through :meth:`SimWorld.try_emit`;
* every mutation is recorded in the trace as an
  :class:`~repro.sim.trace.ItemEvent` (whoever listens to the trace —
  ``obs=`` — hears it there; with nobody listening a record is one list
  append, the trace's ``record_item`` being the list's ``append``, so the
  hub looks it up on the trace at every record), and garbage collection
  runs after each consume.

A :class:`SimWorld` is the DES counterpart of :mod:`repro.runtime.live`:
everything :class:`~repro.runtime.static_exec.StaticExecutor`,
:class:`~repro.runtime.dynamic.DynamicExecutor` and
:class:`~repro.faults.runner.FaultTolerantExecutor` share for one run —
the STM wiring, the frame ledger and the result builder — so that the
three differ only in their scheduling policy (the paper's controlled
comparison, §3.2 / §3.3 / §3.4).  The two schedule-driven ones also share
their launch loop (:class:`~repro.runtime.static_exec.EpochDriver`, which
builds the world and tells it, with :meth:`SimWorld.enter`, the state each
epoch runs in) and their placement body
(:class:`~repro.runtime.static_exec.PlacementReplay`).  All three put a
task's outputs through the one emit body, :meth:`SimWorld.try_emit`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ItemConsumed, ItemUnavailable
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import TaskPlan
from repro.runtime.live import merge_completion, report_frames, terminal_channels
from repro.runtime.result import ExecutionResult
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator
from repro.sim.trace import ExecSpan, ItemEvent, TraceRecorder
from repro.state import State
from repro.stm.channel import STMChannel, Timestamp
from repro.stm.connection import Connection
from repro.stm.gc import GCStats, collect_channel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability

__all__ = ["ChannelHub", "SimWorld", "build_hubs"]

# A record from the tuple of all its fields: ``tuple.__new__`` is all the
# NamedTuple's generated ``__new__`` does, without a Python-level call a
# record — the DES writes some twenty a frame.
_span = partial(tuple.__new__, ExecSpan)
_item = partial(tuple.__new__, ItemEvent)


class ChannelHub:
    """One STM channel bound to the simulator and the trace."""

    def __init__(
        self,
        sim: Simulator,
        channel: STMChannel,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.stm = channel
        self.name = channel.name
        self.trace = trace
        self.gc_stats = GCStats()
        self._changed: Optional[SimEvent] = None  # made by wait_change()

    # -- notification -------------------------------------------------------

    def wait_change(self) -> SimEvent:
        """Event firing at the channel's next mutation."""
        if self._changed is None:
            self._changed = self.sim.event(("{}-changed", self.name))
        return self._changed

    def _notify(self) -> None:
        # Called only when somebody asked for the next change.
        waited, self._changed = self._changed, None
        waited.succeed()

    # -- operations ----------------------------------------------------------

    def put(self, conn: Connection, ts: int, value: Any, size: int = 0) -> bool:
        """Put unless the channel is at capacity; False means "full, wait
        for the next change and call again"."""
        if self.stm.is_full:
            return False
        now = self.sim.now
        self.stm.put(conn, ts, value, size=size, time=now)
        if self.trace is not None:
            self.trace.record_item(_item((now, self.name, "put", ts, conn.task)))
        if self._changed is not None:
            self._notify()
        return True

    def try_get(self, conn: Connection, ts: Timestamp) -> Optional[tuple[int, Any]]:
        """Non-blocking get; records the access in the trace on a hit.

        An item this connection already consumed counts as a miss: under a
        saturated schedule frames can complete out of order, so a drain
        consuming ts may declare earlier, still-in-flight timestamps dead
        (they arrive "born consumed") — that is skipping, not an error.
        """
        try:
            got_ts, value = self.stm.get(conn, ts)
        except (ItemConsumed, ItemUnavailable):
            return None
        if self.trace is not None:
            self.trace.record_item(
                _item((self.sim.now, self.name, "get", got_ts, conn.task))
            )
        return got_ts, value

    def consume(self, conn: Connection, ts: int) -> int:
        """Consume ``ts`` for ``conn``; run GC; return items collected."""
        self.stm.consume(conn, ts)
        if self.trace is not None:
            self.trace.record_item(
                _item((self.sim.now, self.name, "consume", ts, conn.task))
            )
        collected = collect_channel(self.stm, self.gc_stats)
        if self._changed is not None:
            self._notify()
        return collected

    def __repr__(self) -> str:
        return f"ChannelHub({self.name!r}, live={len(self.stm)})"


def build_hubs(
    sim: Simulator,
    graph: TaskGraph,
    trace: Optional[TraceRecorder] = None,
    capacity_override: Optional[dict[str, Optional[int]]] = None,
) -> dict[str, ChannelHub]:
    """Instantiate a hub for every channel a graph declares.

    ``capacity_override`` maps channel names to capacities, replacing the
    spec's value (used by the flow-control ablation).
    """
    hubs: dict[str, ChannelHub] = {}
    overrides = capacity_override or {}
    for spec in graph.channels:
        cap = overrides.get(spec.name, spec.capacity)
        hubs[spec.name] = ChannelHub(sim, STMChannel(spec.name, capacity=cap), trace)
    return hubs


class SimWorld:
    """One run's simulated world: what the three DES executors share.

    The executor builds the simulator, the trace, the hubs
    (:func:`build_hubs`) and the task plans
    (:func:`~repro.runtime.dispatch.build_task_plans`) and hands them
    over; the world then owns the STM wiring — static channels filled
    once, one ``-collector-`` per terminal channel, one connection per
    task and channel — the frame ledger (``digitize_times``,
    ``sink_done``) and the :class:`~repro.runtime.result.ExecutionResult`
    builder.  What is left to an executor is its scheduling policy.
    An ``obs`` bundle is subscribed to the trace here, and told of every
    completed frame by :meth:`result`.

    Attributes
    ----------
    conns_in:
        ``{task: {channel: Connection}}`` over every input, streaming and
        static, in declared order.
    stream_in:
        ``{task: ((hub, connection), ...)}`` over the task's streaming
        inputs — what :meth:`retire` consumes for a finished placement.
    edges:
        ``{task: ((predecessor, bytes, channel label), ...)}`` — the one
        per-edge table of a run: whose completion a placement waits for,
        how many bytes the transfer is charged for in the current state
        (:meth:`enter`), and the ``+``-joined channel names it is reported
        under.
    digitize_times:
        ``{timestamp: time}`` of the *last* source's put of the frame.  A
        source stamps a timestamp once, so a checkpoint replay keeps the
        first attempt's time.
    sink_done:
        ``{sink task: {timestamp: time}}``; a frame is complete once
        every sink has it (:func:`~repro.runtime.live.merge_completion`).
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        sim: Simulator,
        trace: TraceRecorder,
        hubs: dict[str, ChannelHub],
        plans: dict[str, TaskPlan],
        obs: Optional["Observability"] = None,
    ) -> None:
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.sim = sim
        self.trace = trace
        self.hubs = hubs
        self.plans = plans
        self.obs = obs
        if obs is not None:
            trace.subscribe(obs.on_record)
        for spec in graph.channels:
            if spec.static:
                stm = hubs[spec.name].stm
                stm.put(
                    stm.attach_output("-env-"), 0, {"state": state},
                    size=spec.item_size(state),
                )
        # Terminal channels are drained by an implicit collector — the
        # application's output side (DECface reads the locations in the
        # real system); without it a capacity-bounded terminal channel
        # would fill and block the sink task forever.
        collectors = {
            ch: hubs[ch].stm.attach_input("-collector-")
            for ch in terminal_channels(graph)
        }
        self.conns_in = {
            t.name: {ch: hubs[ch].stm.attach_input(t.name) for ch in t.inputs}
            for t in graph.tasks
        }
        self.stream_in = {
            name: tuple((hubs[ch], self.conns_in[name][ch]) for ch in plan.stream_inputs)
            for name, plan in plans.items()
        }
        # Sizes and bytes are what the world charges for its state: left
        # empty here and derived by :meth:`enter`, below and at every epoch.
        self._outputs = {
            name: tuple(
                (hubs[ch], hubs[ch].stm.attach_output(name), 0, collectors.get(ch))
                for ch in plan.outputs
            )
            for name, plan in plans.items()
        }
        self.edges = {
            t.name: tuple(
                (
                    pred,
                    0,
                    "+".join(ch.name for ch in graph.channels_between(pred, t.name)),
                )
                for pred in graph.predecessors(t.name)
            )
            for t in graph.tasks
        }
        self.enter(state)
        self.digitize_times: dict[int, float] = {}
        self.sink_done: dict[str, dict[int, float]] = {
            s: {} for s in graph.sink_tasks()
        }
        self._digitized: dict[str, set[int]] = {
            s: set() for s in graph.source_tasks()
        }

    def enter(self, state: State) -> None:
        """The application is in ``state`` from now on: re-derive, in place,
        the two things the world charges by state — the size of every item
        a task puts and the bytes of every edge.  The epoch driver calls
        this at an epoch boundary, where it also re-lowers the schedule."""
        self.state = state
        graph = self.graph
        for task, outputs in self._outputs.items():
            self._outputs[task] = tuple(
                (hub, conn, graph.channel(hub.name).item_size(state), collector)
                for hub, conn, _size, collector in outputs
            )
        for task, incoming in self.edges.items():
            self.edges[task] = tuple(
                (pred, graph.comm_bytes(pred, task, state), label)
                for pred, _bytes, label in incoming
            )

    def record_exec(
        self,
        task: str,
        ts: int,
        procs: tuple[int, ...],
        start: float,
        end: float,
        variant: str = "serial",
        preempted: bool = False,
        cost: Optional[float] = None,
        node_class: Optional[str] = None,
    ) -> None:
        """One execution of ``task`` for frame ``ts``: a trace span per
        processor, the primary first."""
        for proc in procs:
            self.trace.record_span(_span((
                proc, task, ts, start, end, None, preempted, variant, cost, node_class
            )))

    def try_emit(
        self, task: str, ts: int, first: int = 0, second: bool = False
    ) -> Optional[tuple[int, ChannelHub]]:
        """Put ``task``'s outputs for frame ``ts``, draining terminal
        channels behind them: from position ``first`` on, and return None,
        or stop at the first full channel and return ``(position, hub)`` —
        call again with that position at the hub's next change.

        A ``second`` attempt at ``ts`` (a checkpoint replay) skips the
        outputs its channel still holds from the first; a first attempt
        never does, so a duplicate put stays the error it is
        (:class:`~repro.errors.DuplicateTimestamp`)."""
        outputs = self._outputs[task]
        for at in range(first, len(outputs)):
            hub, conn, size, collector = outputs[at]
            if not (second and hub.stm.holds(ts)) and not hub.put(
                conn, ts, {"ts": ts}, size
            ):
                return at, hub
            if collector is not None:
                hub.try_get(collector, ts)
                hub.consume(collector, ts)
        return None

    def retire(self, task: str, ts: int, end: float) -> None:
        """``task`` is through with frame ``ts``: consume its streaming
        inputs and stamp the ledger (digitize if a source, done at ``end``
        if a sink)."""
        for hub, conn in self.stream_in[task]:
            hub.consume(conn, ts)
        digitized = self._digitized.get(task)
        if digitized is not None and ts not in digitized:
            digitized.add(ts)
            self.digitize_times[ts] = self.sim.now
        done = self.sink_done.get(task)
        if done is not None:
            done[ts] = end

    def result(self, horizon: float, emitted: int, meta: dict) -> ExecutionResult:
        """The run's :class:`ExecutionResult`: the ledger merged into
        completion times, frames reported, GC totals summed over the hubs."""
        completion = merge_completion(self.sink_done)
        report_frames(self.obs, self.digitize_times, completion)
        hubs = self.hubs.values()
        return ExecutionResult(
            graph=self.graph,
            state=self.state,
            trace=self.trace,
            digitize_times=self.digitize_times,
            completion_times=completion,
            horizon=horizon,
            emitted=emitted,
            gc_collected=sum(h.gc_stats.collected for h in hubs),
            live_item_high_water=sum(h.gc_stats.high_water_items for h in hubs),
            meta=meta,
        )
