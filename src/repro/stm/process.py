"""Cross-process STM transport for the process-parallel runtime.

The process runtime (:mod:`repro.runtime.process`) maps each scheduled
cluster node to a worker *process*, so the STM items of an edge that
crosses nodes must cross address spaces.  (A channel whose every endpoint
is scheduled on one node never comes here: it is a
:class:`~repro.stm.threaded.ThreadedChannel` inside that node's worker.)
This module supplies the two halves of the inter-node transport:

* :class:`ChannelBroker` — lives in the parent, single-threaded code that
  the run's one loop drives a turn at a time (:meth:`ChannelBroker.turn`).
  It owns the real :class:`~repro.stm.channel.STMChannel` objects (a
  single source of truth, exactly like the condition-variable wrapper in
  :mod:`repro.stm.threaded` owns its channel) and serves ONE op, the
  *step*: a batch of consumes, puts and gets that the broker applies as
  each becomes possible, parking the step until all have landed, and
  running :func:`~repro.stm.gc.collect_channel` — the one collector —
  after each consume.  Because the broker literally reuses
  ``STMChannel``, the timestamp/consume semantics — virtual-time
  advancement, born-consumed items — are identical across the threaded
  and process substrates by construction.

* :class:`StepBatch` — the one client of that op, made once per lane
  thread: a lane's frame loop queues, for its boundary channels, the
  previous placement's puts and consumes plus the next one's gets and
  ships them as one step (none when nothing was queued).  It owns the
  shared-memory rings of its producer connections and decodes the reply.

A step travels over a duplex :func:`multiprocessing.Pipe` of its own lane
(:meth:`ChannelBroker.pipe`: one per lane that owns a boundary end), and
its reply comes back on the same pipe: a round trip, counted as ``step``.
A worker's reports — ``fatal`` and ``done`` — go up a control pipe of its
own.  No thread serves the transport on either side: the broker runs in
the parent's loop, a lane waits on its own pipe.  (A terminal channel is
collected in its producer's worker and never comes here.)

Payloads travel on two planes.  ``numpy`` arrays of at least
:data:`SHM_THRESHOLD_BYTES` (4 KiB, a constant) ride a shared-memory
ring: each producer connection recycles a small set of
:mod:`multiprocessing.shared_memory` segments, reusing a slot once the
broker reports the item that occupied it was garbage collected (the
step reply piggybacks the freed timestamps, so recycling costs no extra
round trip).  Everything else — smaller arrays, python scalars, lists,
dicts, arbitrary pickles — travels inline in the request message.
Consumers always copy out of shared memory before returning, so a segment
is never read after its item is collected.
"""

from __future__ import annotations

import pickle
import time as _time
from dataclasses import dataclass, field
from multiprocessing.connection import Pipe, wait
from typing import Any, Optional

from repro.errors import ItemConsumed, ItemUnavailable, STMError
from repro.sim.trace import ItemEvent, TraceRecorder
from repro.stm.channel import STMChannel
from repro.stm.connection import Connection
from repro.stm.gc import GCStats, collect_channel
from repro.stm.threaded import ChannelPoisoned

try:  # pragma: no cover - exercised indirectly everywhere below
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shm
    _shm = None

__all__ = [
    "BrokerDied",
    "ChannelBroker",
    "ShmRing",
    "StepBatch",
    "decode_value",
    "resolve_shm_threshold",
]

#: The pickle/shm crossover: ndarray payloads of at least this many bytes
#: ride a shared-memory segment, everything smaller is pickled into the
#: step.  A constant, not a per-host calibration: what shared memory saves
#: is carrying the pickled bytes from process to process, which timing the
#: two codecs side by side cannot see — codec against codec pickling wins
#: up to 64 KiB, while end to end pickling the 57.6 KB tracker frames cost
#: ``live_process`` ~40 % of its frames/s (measured over the queue
#: transport the pipes replaced).
SHM_THRESHOLD_BYTES = 4096


def resolve_shm_threshold() -> int:
    """The pickle/shm crossover in bytes (:data:`SHM_THRESHOLD_BYTES`)."""
    return SHM_THRESHOLD_BYTES


class BrokerDied(STMError):
    """The parent-side broker stopped replying (crashed or shut down)."""


# ---------------------------------------------------------------------------
# Payload codec: ndarray -> shared memory, everything else -> pickle
# ---------------------------------------------------------------------------


def _as_shmable(value: Any):
    """The value as a C-contiguous ndarray if shm transport applies, else None."""
    if _shm is None:
        return None
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        return None
    if (
        isinstance(value, np.ndarray)
        and not value.dtype.hasobject
        and value.nbytes >= SHM_THRESHOLD_BYTES
    ):
        return np.ascontiguousarray(value)
    return None


class ShmRing:
    """Producer-side recycler of shared-memory segments.

    One ring per producer connection.  ``acquire`` hands back a free
    segment of sufficient size (or creates one); ``occupy`` ties the
    segment to the timestamp it carries; ``release`` — fed from the
    broker's step replies — returns collected timestamps' segments to the
    free list.  Segment *unlinking* is centralized in the broker (which
    tracks every name it has ever seen), so a producer crash never leaks
    /dev/shm entries past the run.
    """

    def __init__(self, slots: int = 64) -> None:
        self.max_slots = slots
        self._free: list[Any] = []  # SharedMemory handles, largest last
        self._inflight: dict[int, Any] = {}  # ts -> SharedMemory
        self.created = 0
        self.recycled = 0

    def acquire(self, nbytes: int):
        """A segment with room for ``nbytes`` (recycled when possible)."""
        for i, seg in enumerate(self._free):
            if seg.size >= nbytes:
                self.recycled += 1
                return self._free.pop(i)
        self.created += 1
        return _shm.SharedMemory(create=True, size=max(nbytes, 1))

    def occupy(self, ts: int, seg) -> None:
        self._inflight[ts] = seg

    def release(self, timestamps) -> None:
        for ts in timestamps:
            seg = self._inflight.pop(ts, None)
            if seg is not None and len(self._free) < self.max_slots:
                self._free.append(seg)
            elif seg is not None:
                seg.close()

    def close(self) -> None:
        """Drop local mappings (the broker owns unlinking)."""
        for seg in self._free:
            seg.close()
        for seg in self._inflight.values():
            seg.close()
        self._free.clear()
        self._inflight.clear()


def encode_value(value: Any, ring: Optional[ShmRing] = None, ts: int = -1):
    """Encode one item value for transport.

    Returns ``("shm", name, shape, dtype_str, nbytes)`` for large arrays
    (written into a ring segment) or ``("pickle", bytes)`` for anything
    else.
    """
    arr = _as_shmable(value) if ring is not None else None
    if arr is not None:
        import numpy as np

        seg = ring.acquire(arr.nbytes)
        # Copy straight into the segment's mmap: one memcpy, no tobytes()
        # intermediate.  The borrowing view must be dropped before the
        # segment can ever be closed.
        view = np.frombuffer(seg.buf, dtype=arr.dtype, count=arr.size)
        np.copyto(view.reshape(arr.shape), arr)
        del view
        ring.occupy(ts, seg)
        return ("shm", seg.name, arr.shape, arr.dtype.str, arr.nbytes)
    return ("pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def decode_value(encoded) -> Any:
    """Decode a transported value; shm payloads are copied out immediately."""
    kind = encoded[0]
    if kind == "pickle":
        return pickle.loads(encoded[1])
    if kind == "shm":
        import numpy as np

        _, name, shape, dtype, nbytes = encoded
        seg = _shm.SharedMemory(name=name)
        try:
            dt = np.dtype(dtype)
            # frombuffer exports a pointer into the segment's mmap; every
            # view must be dropped before close() or the mmap refuses to
            # unmap — hence copy, then delete the borrowing array.
            view = np.frombuffer(seg.buf, dtype=dt, count=nbytes // dt.itemsize)
            arr = view.reshape(shape).copy()
            del view
            return arr
        finally:
            seg.close()
    raise STMError(f"unknown payload encoding {kind!r}")


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
#
# Request (worker -> broker, on one of the worker's pipes): (op, args)
#   the one op with a reply, on a lane's pipe:  step
#   no reply, on the control pipe:              fatal (exc text),
#                                               done (the node's report)
#   anything else:                              "error" reply
# Reply (broker -> the pipe the step came in on): (status, data)
#   status: "ok" | "timeout" | "poisoned" | "error"
#   step args:       (consumes, puts, gets, timeout) — one frame's traffic.
#                    consumes: ((channel, conn, ts),...) applied
#                    IMMEDIATELY on arrival (even while the step waits —
#                    withholding them would deadlock pipelines);
#                    puts: ((channel, conn, ts, encoded, size),...) and
#                    gets: ((channel, conn, ts),...) applied as they
#                    become possible, each exactly once.
#   step "ok" data:  (get results aligned with the request,
#                     ((channel, conn, freed_timestamps),...) ring feed —
#                     each producer connection's timestamps collected
#                     since its previous reply,
#                     when the step's last put landed: a
#                     time.perf_counter() reading, None without puts)


@dataclass
class _StepWaiter:
    """One step in flight inside the broker, answered on ``pipe``.

    ``consumes`` are applied once, on first dispatch; ``puts`` entries
    are ``[channel, conn_id, ts, encoded, size, applied]`` and ``gets``
    entries ``[channel, conn_id, ts, result-or-None]`` — per-sub-op
    completion flags make retries idempotent.
    """

    pipe: Any
    deadline: Optional[float]
    consumes: tuple
    puts: list
    gets: list
    consumed: bool = False
    landed: Optional[float] = None

    def channels(self) -> set[str]:
        names = {c[0] for c in self.consumes}
        names.update(p[0] for p in self.puts)
        names.update(g[0] for g in self.gets)
        return names


@dataclass
class _BrokerChannel:
    """Parent-side bookkeeping for one channel."""

    stm: STMChannel
    gc_stats: GCStats = field(default_factory=GCStats)
    poisoned: bool = False
    #: every shm segment name an item of this channel ever used
    segment_names: set[str] = field(default_factory=set)
    #: producer conn -> timestamps collected since its last step reply
    freed: dict[int, list[int]] = field(default_factory=dict)
    #: ts -> (producer conn, encoding) for live items (segment reclaim)
    producers: dict[int, tuple[int, Any]] = field(default_factory=dict)


class ChannelBroker:
    """Parent-side STM service: all channels, exact semantics, no thread.

    Parameters
    ----------
    channel_specs:
        ``{name: capacity}`` for every channel to host.

    The broker holds its end of every pipe :meth:`pipe` made and is served
    by whoever calls :meth:`turn` — the process runtime's one loop.  After
    :meth:`record_into`, every put/get/consume is an
    :class:`~repro.sim.trace.ItemEvent` stamped with the broker's clock
    (:attr:`now`, seconds since :meth:`start`), mirroring the threaded
    runtime's instrumentation point.
    """

    def __init__(self, channel_specs: dict[str, Optional[int]]) -> None:
        if _shm is not None:
            # Start the resource tracker *before* any worker forks: children
            # then inherit its pipe and every segment register/unregister
            # lands in one tracker.  Otherwise each worker lazily starts its
            # own, which the broker's unlinks can never reach, and shutdown
            # drowns in spurious "leaked shared_memory" warnings.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        self.channels: dict[str, _BrokerChannel] = {
            name: _BrokerChannel(stm=STMChannel(name, capacity=cap))
            for name, cap in channel_specs.items()
        }
        self._trace: Optional[TraceRecorder] = None
        self._conns: dict[int, tuple[str, Connection]] = {}
        #: the broker's end of every pipe it serves -> the worker it belongs to
        self._pipes: dict[Any, int] = {}
        self.errors: list[str] = []
        self.done_payloads: dict[int, Any] = {}
        self._t0 = _time.perf_counter()
        #: parked steps, retried to fixpoint after every mutation
        self._steps: list[_StepWaiter] = []
        #: requests served, by op — the broker round-trip accounting the
        #: scaling benchmark reads
        self.op_counts: dict[str, int] = {}

    # -- parent-side setup --------------------------------------------------

    def pipe(self, worker: int):
        """A new duplex pipe of ``worker``'s: the broker keeps and serves one
        end, the caller hands the other to the worker (and closes its own
        copy once the worker is forked)."""
        mine, theirs = Pipe()
        self._pipes[mine] = worker
        return theirs

    def attach_input(self, channel: str, task: str) -> int:
        conn = self.channels[channel].stm.attach_input(task)
        self._conns[conn.conn_id] = (channel, conn)
        return conn.conn_id

    def attach_output(self, channel: str, task: str) -> int:
        conn = self.channels[channel].stm.attach_output(task)
        self._conns[conn.conn_id] = (channel, conn)
        return conn.conn_id

    def conn(self, conn_id: int) -> Connection:
        return self._conns[conn_id][1]

    def put_static(self, channel: str, value: Any, size: int = 0) -> None:
        """Populate a static configuration channel before workers start."""
        conn_id = self.attach_output(channel, "-env-")
        bc = self.channels[channel]
        bc.stm.put(self.conn(conn_id), 0, encode_value(value), size=size)

    def roundtrips(self) -> int:
        """Total step round trips served (requests that got a reply)."""
        return self.op_counts.get("step", 0)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the run's clock: :attr:`now` reads 0 here."""
        self._t0 = _time.perf_counter()

    def turn(self, timeout: float, others=()) -> list:
        """One turn of the serving loop.

        Waits up to ``timeout`` seconds for any of the broker's pipes or
        ``others`` (anything :func:`multiprocessing.connection.wait` takes —
        a worker's sentinel), serves every request that arrived, expires
        the parked steps whose deadline passed, and returns the members of
        ``others`` that are ready.
        """
        others = set(others)
        ready = wait([*self._pipes, *others], timeout)
        for pipe in ready:
            if pipe in self._pipes:
                self._serve(pipe)
        self._expire_steps()
        return [obj for obj in ready if obj in others]

    def hang_up(self, worker: int) -> None:
        """Serve everything ``worker`` sent, then close its pipes: called
        once it has exited, so its last ``fatal`` or ``done`` is read
        before its exit is judged."""
        for pipe in [p for p, w in self._pipes.items() if w == worker]:
            while pipe in self._pipes and pipe.poll():
                self._serve(pipe)
            self._close(pipe)

    def close(self) -> None:
        """Close every pipe and reclaim every shared-memory segment."""
        for pipe in list(self._pipes):
            self._close(pipe)
        self._unlink_all()

    def poison_all(self) -> None:
        for name in self.channels:
            self._poison(name)

    @property
    def now(self) -> float:
        return _time.perf_counter() - self._t0

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-channel put/get/consume/collected counters."""
        return {name: bc.stm.stats() for name, bc in self.channels.items()}

    def gc_totals(self) -> tuple[int, int]:
        """(items collected, live-item high water) summed over channels."""
        return (
            sum(bc.gc_stats.collected for bc in self.channels.values()),
            sum(bc.gc_stats.high_water_items for bc in self.channels.values()),
        )

    # -- service ------------------------------------------------------------

    def _serve(self, pipe) -> None:
        """Read and serve one request from ``pipe``; a pipe whose worker end
        is gone is closed."""
        try:
            op, args = pipe.recv()
        except (EOFError, OSError):
            self._close(pipe)
            return
        self._dispatch(pipe, op, args)
        self._retry_steps()

    def _close(self, pipe) -> None:
        if self._pipes.pop(pipe, None) is not None:
            pipe.close()
            self._steps = [st for st in self._steps if st.pipe is not pipe]

    @staticmethod
    def _reply(pipe, status: str, data: Any = None) -> None:
        try:
            pipe.send((status, data))
        except OSError:  # the lane is gone; its worker's exit reports it
            pass

    def record_into(self, trace: TraceRecorder) -> None:
        """Record every operation from now on into ``trace``."""
        self._trace = trace

    def _observe(self, channel: str, kind: str, ts: int, task: str) -> None:
        if self._trace is not None:
            self._trace.record_item(ItemEvent(self.now, channel, kind, ts, task))

    def _dispatch(self, pipe, op: str, args) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if op == "fatal":
            self.errors.append(args)
            self.poison_all()
            return
        if op == "done":
            self.done_payloads[self._pipes[pipe]] = args
            return
        if op == "step":
            consumes, puts, gets, timeout = args
            st = _StepWaiter(
                pipe=pipe, deadline=self._deadline(timeout),
                consumes=tuple(consumes),
                puts=[list(p) + [False] for p in puts],
                gets=[list(g) + [None] for g in gets],
            )
            completed, _ = self._try_step(st)
            if not completed:
                self._steps.append(st)
            return
        self._reply(pipe, "error", pickle.dumps(STMError(f"unknown op {op!r}")))

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else _time.monotonic() + timeout

    # -- steps --------------------------------------------------------------

    def _apply_put(self, bc: _BrokerChannel, conn_id: int, ts: int,
                   encoded: Any, size: int) -> None:
        """Insert one item with full bookkeeping (caller checked capacity);
        an STM error propagates to the caller."""
        conn = self.conn(conn_id)
        bc.stm.put(conn, ts, encoded, size=size, time=self.now)
        bc.producers[ts] = (conn_id, encoded)
        if encoded[0] == "shm":
            bc.segment_names.add(encoded[1])
        self._observe(bc.stm.name, "put", ts, conn.task)

    def _try_step(self, st: _StepWaiter) -> tuple[bool, bool]:
        """Advance one step as far as possible: ``(completed, progressed)``.

        Completed steps (replied ok/error/poisoned) must not be re-parked.
        Consumes are applied exactly once, on the FIRST attempt — even if
        puts or gets then park.  Withholding a parked step's consumes
        would hold upstream capacity hostage and deadlock pipelines of
        bounded channels; applying them early only ever frees resources.
        """
        progressed = False
        for name in st.channels():
            if self.channels[name].poisoned:
                self._reply(st.pipe, "poisoned")
                return True, True
        if not st.consumed:
            st.consumed = True
            for channel, conn_id, ts in st.consumes:
                try:
                    self._consume(channel, conn_id, ts)
                except STMError as exc:
                    self._reply(st.pipe, "error", pickle.dumps(exc))
                    return True, True
                progressed = True
        for entry in st.puts:
            if entry[5]:
                continue
            bc = self.channels[entry[0]]
            stm = bc.stm
            if stm.capacity is not None and len(stm._order) >= stm.capacity:
                continue  # ``stm.is_full``, without its call
            try:
                self._apply_put(bc, entry[1], entry[2], entry[3], entry[4])
            except STMError as exc:
                self._reply(st.pipe, "error", pickle.dumps(exc))
                return True, True
            entry[5] = True
            st.landed = _time.perf_counter()
            progressed = True
        for entry in st.gets:
            if entry[3] is not None:
                continue
            bc = self.channels[entry[0]]
            conn = self.conn(entry[1])
            try:
                got_ts, encoded = bc.stm.get(conn, entry[2])
            except ItemUnavailable:
                continue
            except ItemConsumed as exc:
                self._reply(st.pipe, "error", pickle.dumps(exc))
                return True, True
            self._observe(entry[0], "get", got_ts, conn.task)
            entry[3] = (got_ts, encoded)
            progressed = True
        if all(e[5] for e in st.puts) and all(e[3] is not None for e in st.gets):
            freed = []
            seen: set[tuple[str, int]] = set()
            for entry in st.puts:
                key = (entry[0], entry[1])
                if key in seen:
                    continue
                seen.add(key)
                timestamps = tuple(self.channels[entry[0]].freed.pop(entry[1], ()))
                if timestamps:
                    freed.append((entry[0], entry[1], timestamps))
            self._reply(st.pipe, "ok",
                        (tuple(e[3] for e in st.gets), tuple(freed), st.landed))
            return True, True
        return False, progressed

    def _retry_steps(self) -> None:
        """Retry parked steps to fixpoint after any mutation.

        One step's progress (a consume freeing capacity, a put landing an
        item) can unblock another, so the loop runs until a full pass
        makes no progress.
        """
        while self._steps:
            progressed_any = False
            remaining = []
            for st in self._steps:
                completed, progressed = self._try_step(st)
                progressed_any |= progressed
                if not completed:
                    remaining.append(st)
            self._steps = remaining
            if not progressed_any:
                return

    def _consume(self, channel: str, conn_id: int, ts: int) -> None:
        bc = self.channels[channel]
        conn = self.conn(conn_id)
        bc.stm.consume(conn, ts)
        self._observe(channel, "consume", ts, conn.task)
        # Feed what the collector is about to free, ascending, back to its
        # producers (segment reclaim), then collect.
        for dead in bc.stm.collectible():
            producer = bc.producers.pop(dead, None)
            if producer is not None:
                bc.freed.setdefault(producer[0], []).append(dead)
        collect_channel(bc.stm, bc.gc_stats)

    def _expire_steps(self) -> None:
        now = _time.monotonic()
        keep = []
        for st in self._steps:
            if st.deadline is not None and now >= st.deadline:
                self._reply(st.pipe, "timeout")
            else:
                keep.append(st)
        self._steps = keep

    def _poison(self, name: str) -> None:
        bc = self.channels[name]
        if bc.poisoned:
            return
        bc.poisoned = True
        bc.stm.close()
        still = []
        for st in self._steps:
            if name in st.channels():
                self._reply(st.pipe, "poisoned")
            else:
                still.append(st)
        self._steps = still

    def _unlink_all(self) -> None:
        """Reclaim every shared-memory segment the run created."""
        if _shm is None:  # pragma: no cover
            return
        for bc in self.channels.values():
            for name in bc.segment_names:
                try:
                    seg = _shm.SharedMemory(name=name)
                    seg.close()
                    seg.unlink()
                except FileNotFoundError:
                    pass
            bc.segment_names.clear()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class StepBatch:
    """One lane thread's boundary traffic, one step per placement.

    A lane's frame loop queues the previous placement's puts and consumes
    plus the next one's gets, then :meth:`commit` ships them as one
    ``step`` request down ``pipe`` (the lane's end of a
    :meth:`ChannelBroker.pipe`) and waits on the same pipe for the reply.
    The broker applies the consumes immediately (even while the step waits
    for capacity or data — so batching can never withhold resources and
    deadlock a pipeline), lands puts and gets as they become possible, and
    replies once everything has been applied.  The reply carries the get
    results, the per-producer freed-timestamp feed, which recycles the
    batch's shared-memory rings (one per producer connection it has put
    through), and when the last put landed (:attr:`landed`).  A lane makes
    one batch and commits it every step.

    Gets are restricted to exact integer timestamps: a wildcard resolved
    while the rest of the batch is still parked could be stale by the
    time the reply leaves, exact timestamps cannot — and exact gets are
    all the schedule-driven runtimes ever issue.
    """

    def __init__(self, pipe) -> None:
        self._pipe = pipe
        self._consumes: list[tuple[str, int, int]] = []
        self._puts: list[tuple[str, int, int, Any, int]] = []
        self._gets: list[tuple[str, int, int]] = []
        self._rings: dict[tuple[str, int], ShmRing] = {}
        #: when the last commit's last put landed at the broker (a
        #: ``time.perf_counter()`` reading; None for a commit without puts)
        self.landed: Optional[float] = None

    def __len__(self) -> int:
        return len(self._consumes) + len(self._puts) + len(self._gets)

    def consume(self, channel: str, conn_id: int, ts: int) -> None:
        self._consumes.append((channel, conn_id, ts))

    def put(self, channel: str, conn_id: int, ts: int, value: Any,
            size: int = 0) -> None:
        ring = self._rings.setdefault((channel, conn_id), ShmRing())
        self._puts.append((channel, conn_id, ts, encode_value(value, ring, ts), size))

    def get(self, channel: str, conn_id: int, ts: int) -> None:
        if not isinstance(ts, int):
            raise STMError(
                f"batched gets need exact timestamps, got {ts!r}"
            )
        self._gets.append((channel, conn_id, ts))

    def commit(self, timeout: Optional[float] = None) -> list[tuple[int, Any]]:
        """Ship the batch; returns decoded get results in queue order."""
        if not len(self):
            return []
        args = (tuple(self._consumes), tuple(self._puts), tuple(self._gets),
                timeout)
        self._consumes.clear()
        self._puts.clear()
        self._gets.clear()
        # The broker enforces the step's timeout; the wait here only guards
        # against the broker itself dying, hence the grace margin.
        grace = 30.0 if timeout is None else timeout + 30.0
        try:
            self._pipe.send(("step", args))
            if not self._pipe.poll(grace):
                raise BrokerDied("no broker reply to step")
            status, data = self._pipe.recv()
        except (EOFError, OSError) as exc:
            raise BrokerDied(f"the broker hung up: {exc!r}") from None
        if status == "poisoned":
            raise ChannelPoisoned("step hit a poisoned channel")
        if status == "timeout":
            raise TimeoutError("step timed out")
        if status == "error":
            raise pickle.loads(data)
        results, freed, self.landed = data
        for channel, conn_id, timestamps in freed:
            self._rings[(channel, conn_id)].release(timestamps)
        return [(got_ts, decode_value(encoded)) for got_ts, encoded in results]

    def close(self) -> None:
        """Drop the rings' local mappings (the broker owns unlinking)."""
        for ring in self._rings.values():
            ring.close()
