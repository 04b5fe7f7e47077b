"""Execution traces: the one record every substrate writes.

A :class:`TraceRecorder` accumulates three kinds of records while a
runtime — the discrete-event simulator, real threads or worker
processes — executes a task graph, all on the run's own clock (simulated
seconds, or wall-clock seconds since the live run started):

* :class:`ExecSpan` — "processor *p* ran task *t* for timestamp *ts* from
  *start* to *end*".  Figures 4 and 5 in the paper are exactly plots of
  these spans; latency and uniformity metrics are derived from them.
* :class:`ItemEvent` — puts/gets/consumes on STM channels, used for flow
  analysis and to verify that static schedules imply correct flow control.
* :class:`Mark` — the low-rate events around them: an inter-placement
  transfer, a placement that started late, a confirmed failure and an
  executed failover.

The two per-operation records, :class:`ExecSpan` and :class:`ItemEvent`,
are ``NamedTuple`` classes: a replayed frame writes about twenty of them,
and a tuple is built in one call where a frozen dataclass pays one
``object.__setattr__`` per field.  :class:`Mark` is the low-rate frozen
dataclass (its ``args`` default is a fresh dict per mark).

Whoever wants records as they happen — the
:class:`~repro.obs.Observability` bundle, a JSONL stream
(:class:`~repro.obs.export.JsonlSpanSink`) — calls
:meth:`TraceRecorder.subscribe`; a recorder nobody listens to only
appends, and until somebody does its ``record_item`` / ``record_mark`` *are*
the lists' ``append`` — so whoever records looks them up on the recorder
each time, never keeping one from before a subscription.  The recorder is
deliberately dumb — append-only lists plus indexed views, built when first
read — so the runtime stays fast and analysis code owns all the
interpretation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional, Union

__all__ = ["ExecSpan", "ItemEvent", "Mark", "Record", "TraceRecorder"]


class ExecSpan(NamedTuple):
    """One contiguous stretch of a task executing on a processor.

    ``timestamp`` is the stream timestamp (iteration number) being
    processed; ``chunk`` distinguishes data-parallel chunks of one task
    instance (None for non-decomposed execution).  ``preempted`` marks spans
    that ended because the scheduler preempted the thread rather than
    because the work finished — the paper's §3.2 "partial processing of
    items" pathology is visible as preempted spans.  ``variant`` is the
    placement's decomposition (``"serial"``, ``"dp4"``, ...); a
    data-parallel placement writes one identical span per processor it
    occupies, on every substrate: on a live one its primary lane records
    them, from handing the inputs out to the join.
    ``cost`` is the execution's cost when it is not this span's duration:
    the dynamic executor's last quantum of a frame carries the frame's
    summed quanta, so that no single quantum is taken for a cost.
    ``node_class`` is the speed class cost calibration files the execution
    under when ``proc`` does not tell it: a thread's ``proc`` is its task's
    row, not a processor, and summed quanta may span several processors —
    both say ``"nominal"``.  None means: the class of processor ``proc``.
    """

    proc: int
    task: str
    timestamp: int
    start: float
    end: float
    chunk: Optional[int] = None
    preempted: bool = False
    variant: str = "serial"
    cost: Optional[float] = None
    node_class: Optional[str] = None

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def overlaps(self, other: "ExecSpan") -> bool:
        """True if the two spans overlap in time (exclusive of endpoints)."""
        return self.start < other.end and other.start < self.end


class ItemEvent(NamedTuple):
    """A put/get/consume on a channel, with the acting task and timestamp."""

    time: float
    channel: str
    kind: str  # "put" | "get" | "consume"
    timestamp: int
    task: str = ""


@dataclass(frozen=True)
class Mark:
    """A named ``[start, end)`` interval, or an instant when ``end ==
    start``, on a ``track`` (the row it renders on), with the frame
    ``timestamp`` it concerns (-1 when none) and free-form ``args``.

    Build one with the constructor of its kind — :meth:`comm`,
    :meth:`slip`, :meth:`detection`, :meth:`failover` — which fix the
    name, category, track and args a listener reads.
    """

    name: str
    cat: str
    start: float
    end: float
    track: str = "0"
    timestamp: int = -1
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    @classmethod
    def comm(cls, channel: str, tier: str, start: float, end: float,
             nbytes: int = 0, timestamp: int = -1) -> "Mark":
        """A transfer of ``channel``'s data over ``tier``."""
        return cls(f"xfer:{channel}", "comm", start, end, f"comm:{tier}",
                   timestamp, {"channel": channel, "tier": tier, "bytes": nbytes})

    @classmethod
    def slip(cls, task: str, time: float, amount: float, timestamp: int = -1) -> "Mark":
        """``task`` started ``amount`` seconds after its scheduled time."""
        return cls(f"slip:{task}", "sched", time, time, "schedule", timestamp,
                   {"amount": amount})

    @classmethod
    def detection(cls, time: float, kind: str, detail: str = "") -> "Mark":
        """A fault detector confirmed a failure of ``kind``."""
        return cls(f"detect:{kind}", "faults", time, time, "faults",
                   args={"kind": kind, "detail": detail})

    @classmethod
    def failover(cls, start: float, end: float, detail: str = "") -> "Mark":
        """One executed failover, detection through resumed schedule."""
        return cls("failover", "faults", start, end, "faults", args={"detail": detail})


Record = Union[ExecSpan, ItemEvent, Mark]


class TraceRecorder:
    """Append-only trace of an execution, with indexed read views.

    Every ``record_*`` call appends and then hands the record to each
    listener :meth:`subscribe` registered, in registration order.  Appends
    are single list operations, so live threads record without a lock;
    a listener shared by threads must be thread-safe itself.
    """

    def __init__(self) -> None:
        self.spans: list[ExecSpan] = []
        self.items: list[ItemEvent] = []
        self.marks: list[Mark] = []
        self._listeners: list[Callable[[Record], Any]] = []
        self._by_proc: dict[int, list[ExecSpan]] = defaultdict(list)
        self._by_task: dict[str, list[ExecSpan]] = defaultdict(list)
        self._by_ts: dict[int, list[ExecSpan]] = defaultdict(list)
        self._indexed = 0  # spans[:_indexed] are in the three indexes
        self._route()

    # -- recording --------------------------------------------------------

    def _route(self) -> None:
        # With nobody listening an item or a mark is one append: the lists'
        # own ``append`` stands in for record_item / record_mark, bound to
        # this recorder's lists.  Once somebody listens, the methods that
        # tell the listeners take over — so callers look them up at every
        # record.
        vars(self).pop("record_item", None)
        vars(self).pop("record_mark", None)
        if not self._listeners:
            self.record_item, self.record_mark = self.items.append, self.marks.append

    def __setstate__(self, state: dict) -> None:
        # A deep copy's state holds the original's shortcuts: bind its own.
        vars(self).update(state)
        self._route()

    def subscribe(self, listener: Callable[[Record], Any]) -> None:
        """Hand every record from now on to ``listener`` as it is written."""
        self._listeners.append(listener)
        self._route()

    def record_span(self, span: ExecSpan) -> None:
        """Append one execution span (must have ``end >= start``)."""
        if span.end < span.start:
            raise ValueError(f"span ends before it starts: {span}")
        self.spans.append(span)
        for listener in self._listeners:
            listener(span)

    def record_item(self, event: ItemEvent) -> None:
        """Append one channel item event."""
        self.items.append(event)
        for listener in self._listeners:
            listener(event)

    def record_mark(self, mark: Mark) -> None:
        """Append one mark."""
        self.marks.append(mark)
        for listener in self._listeners:
            listener(mark)

    # -- views ---------------------------------------------------------------

    def _index(self) -> None:
        """Bring the per-processor / task / timestamp indexes up to date
        with :attr:`spans` (the views read them; recording does not)."""
        spans = self.spans
        for span in spans[self._indexed:]:
            self._by_proc[span.proc].append(span)
            self._by_task[span.task].append(span)
            self._by_ts[span.timestamp].append(span)
        self._indexed = len(spans)

    def spans_on(self, proc: int) -> list[ExecSpan]:
        """Spans executed on processor ``proc`` in recording order."""
        self._index()
        return list(self._by_proc.get(proc, ()))

    def spans_of(self, task: str) -> list[ExecSpan]:
        """Spans of task ``task`` in recording order."""
        self._index()
        return list(self._by_task.get(task, ()))

    def spans_for_timestamp(self, ts: int) -> list[ExecSpan]:
        """Spans processing stream timestamp ``ts``."""
        self._index()
        return list(self._by_ts.get(ts, ()))

    def timestamps(self) -> list[int]:
        """Sorted list of stream timestamps that have any recorded span."""
        self._index()
        return sorted(self._by_ts)

    def processors(self) -> list[int]:
        """Sorted list of processors that executed anything."""
        self._index()
        return sorted(self._by_proc)

    def tasks(self) -> list[str]:
        """Sorted list of task names that executed anything."""
        self._index()
        return sorted(self._by_task)

    @property
    def makespan(self) -> float:
        """End time of the last span (0.0 for an empty trace)."""
        return max(map(attrgetter("end"), self.spans), default=0.0)

    # -- per-timestamp completion ------------------------------------------------

    def completion_time(self, ts: int, sink_tasks: Iterable[str] | None = None) -> Optional[float]:
        """When processing of stream timestamp ``ts`` finished.

        With ``sink_tasks`` given, completion requires a span from each sink
        task (the paper measures latency to "reading all of its detected
        target locations", i.e. to the final task).  Returns None if ``ts``
        never completed.
        """
        self._index()
        spans = self._by_ts.get(ts)
        if not spans:
            return None
        if sink_tasks is None:
            return max(s.end for s in spans)
        sinks = set(sink_tasks)
        ends: list[float] = []
        for sink in sinks:
            sink_spans = [s for s in spans if s.task == sink and not s.preempted]
            if not sink_spans:
                return None
            ends.append(max(s.end for s in sink_spans))
        return max(ends)

    def completed_timestamps(self, sink_tasks: Iterable[str] | None = None) -> list[int]:
        """Stream timestamps that ran to completion, sorted."""
        sinks = list(sink_tasks) if sink_tasks is not None else None
        return [ts for ts in self.timestamps() if self.completion_time(ts, sinks) is not None]

    # -- busy/idle accounting ----------------------------------------------------

    def busy_time(self, proc: int, until: Optional[float] = None) -> float:
        """Total busy seconds on ``proc`` (clipped to ``until`` if given)."""
        total = 0.0
        self._index()
        for s in self._by_proc.get(proc, ()):
            end = s.end if until is None else min(s.end, until)
            if end > s.start:
                total += end - s.start
        return total

    def utilization(self, procs: Iterable[int], until: Optional[float] = None) -> float:
        """Mean fraction of time the given processors were busy."""
        procs = list(procs)
        if not procs:
            return 0.0
        horizon = until if until is not None else self.makespan
        if horizon <= 0:
            return 0.0
        return sum(self.busy_time(p, horizon) for p in procs) / (horizon * len(procs))

    # -- export -------------------------------------------------------------------

    def to_chrome_trace(self, time_scale: float = 1_000_000.0) -> list[dict]:
        """Export the trace as Chrome tracing (``chrome://tracing``) events.

        Spans become complete (``"X"``) duration events on one row per
        processor (pid 0, tid = processor index); item events become
        instants (``"i"``) on per-channel rows under pid 1; marks become
        complete events, or instants when they have no duration, on one row
        per track under pid 2, rows in order of first appearance; every row
        gets an ``"M"`` metadata name.  Each get additionally
        emits a flow-event pair (``"s"`` at the item's put, ``"f"`` at the
        get, one flow id per get) so put→get causality renders as arrows
        in the trace viewer.  Simulated seconds are scaled by
        ``time_scale`` into the format's microseconds, so one simulated
        second reads as one second in the viewer by default.  Serialize
        with ``json.dump({"traceEvents": events}, fh)``.
        """
        events: list[dict] = []
        events.append(
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": "processors"}}
        )
        for proc in self.processors():
            events.append(
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": proc,
                 "args": {"name": f"cpu{proc}"}}
            )
        for s in self.spans:
            args: dict = {"timestamp": s.timestamp}
            if s.chunk is not None:
                args["chunk"] = s.chunk
            if s.preempted:
                args["preempted"] = True
            events.append(
                {
                    "ph": "X",
                    "name": s.task,
                    "cat": "preempted" if s.preempted else "span",
                    "pid": 0,
                    "tid": s.proc,
                    "ts": s.start * time_scale,
                    "dur": s.duration * time_scale,
                    "args": args,
                }
            )
        if self.items:
            events.append(
                {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                 "args": {"name": "channels"}}
            )
            channels = sorted({e.channel for e in self.items})
            tids = {ch: i for i, ch in enumerate(channels)}
            for ch, tid in tids.items():
                events.append(
                    {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                     "args": {"name": ch}}
                )
            for e in self.items:
                events.append(
                    {
                        "ph": "i",
                        "name": f"{e.kind}@{e.timestamp}",
                        "cat": e.kind,
                        "pid": 1,
                        "tid": tids[e.channel],
                        "ts": e.time * time_scale,
                        "s": "t",
                        "args": {"task": e.task, "timestamp": e.timestamp},
                    }
                )
            # Flow arrows: every get points back at the put that produced
            # its item.  Each get carries its own flow id (a fan-out of N
            # consumers is N arrows from one put).
            puts: dict[tuple[str, int], ItemEvent] = {}
            for e in self.items:
                if e.kind == "put":
                    puts.setdefault((e.channel, e.timestamp), e)
            flow_id = 0
            for e in self.items:
                if e.kind != "get":
                    continue
                put = puts.get((e.channel, e.timestamp))
                if put is None:
                    continue
                flow_id += 1
                common = {
                    "name": f"{e.channel}@{e.timestamp}",
                    "cat": "flow",
                    "pid": 1,
                    "tid": tids[e.channel],
                    "id": flow_id,
                }
                events.append(
                    {"ph": "s", "ts": put.time * time_scale,
                     "args": {"task": put.task, "timestamp": e.timestamp}, **common}
                )
                events.append(
                    {"ph": "f", "bp": "e", "ts": e.time * time_scale,
                     "args": {"task": e.task, "timestamp": e.timestamp}, **common}
                )
        if self.marks:
            events.append(
                {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
                 "args": {"name": "marks"}}
            )
            rows: dict[str, int] = {}
            for m in self.marks:
                rows.setdefault(m.track, len(rows))
            for track, tid in rows.items():
                events.append(
                    {"ph": "M", "name": "thread_name", "pid": 2, "tid": tid,
                     "args": {"name": track}}
                )
            for m in self.marks:
                args = dict(m.args)
                if m.timestamp >= 0:
                    args["timestamp"] = m.timestamp
                event = {"ph": "i" if m.is_instant else "X", "name": m.name,
                         "cat": m.cat, "pid": 2, "tid": rows[m.track],
                         "ts": m.start * time_scale, "args": args}
                if m.is_instant:
                    event["s"] = "t"
                else:
                    event["dur"] = m.duration * time_scale
                events.append(event)
        return events

    def clear(self) -> None:
        """Drop all recorded data (listeners stay subscribed)."""
        self.spans.clear()
        self.items.clear()
        self.marks.clear()
        self._by_proc.clear()
        self._by_task.clear()
        self._by_ts.clear()
        self._indexed = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceRecorder spans={len(self.spans)} items={len(self.items)} "
                f"marks={len(self.marks)}>")
