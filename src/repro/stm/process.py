"""Cross-process STM transport for the process-parallel runtime.

The process runtime (:mod:`repro.runtime.process`) maps each scheduled
cluster node to a worker *process*, so the STM items of an edge that
crosses nodes must cross address spaces.  (A channel whose every endpoint
is scheduled on one node never comes here: it is a
:class:`~repro.stm.threaded.ThreadedChannel` inside that node's worker.)
This module supplies the two halves of the inter-node transport:

* :class:`ChannelBroker` — lives in the parent.  One service thread owns
  the real :class:`~repro.stm.channel.STMChannel` objects (a single
  source of truth, exactly like the condition-variable wrapper in
  :mod:`repro.stm.threaded` owns its channel), and the broker serves ONE
  op, the *step*: a batch of consumes, puts and gets that the broker
  applies as each becomes possible, parking the step until all have
  landed, and running :func:`~repro.stm.gc.collect_channel` — the one
  collector — after each consume.  Because
  the broker literally reuses ``STMChannel``, the timestamp/consume
  semantics — virtual-time advancement, born-consumed items — are
  identical across the threaded and process substrates by construction.

* :class:`StepBatch` — the one client of that op, made once per task
  thread: a task's frame loop queues, for its boundary channels, the
  previous frame's puts and consumes plus the next frame's gets and ships
  them as one step (none when nothing was queued).  It owns the
  shared-memory rings of its producer connections and decodes the reply.

A step reaches the broker over a link.  A worker's is a
:class:`WorkerLink` (a request queue, a reply queue): a queue round trip,
counted as ``step``.  The parent's own threads — the collectors that drain
the terminal channels left at the broker, which are sink tasks like any
other — use a :class:`LocalLink`: the same step, dispatched inline under
the broker lock and counted as ``local_step``, so
:meth:`ChannelBroker.roundtrips` counts queue round trips only.  (A
terminal channel whose producers share a node is collected in that
node's worker and never comes here; only a run that may respawn keeps
them all at the broker.)

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

import itertools
import pickle
import queue
import threading
import time as _time
from dataclasses import dataclass, field
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
    "LocalLink",
    "ShmRing",
    "StepBatch",
    "WorkerLink",
    "decode_value",
    "resolve_shm_threshold",
]

#: The pickle/shm crossover: ndarray payloads of at least this many bytes
#: ride a shared-memory segment, everything smaller is pickled onto the
#: queue.  A constant, not a per-host calibration: what shared memory saves
#: is the queue hop of the pickled bytes (pipe write, feeder thread, pipe
#: read), which timing the two codecs side by side cannot see — codec
#: against codec pickling wins up to 64 KiB, while end to end pickling the
#: 57.6 KB tracker frames costs ``live_process`` ~40 % of its frames/s.
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
# Request (worker -> broker): (worker_id, seq, op, args)
#   the one op with a reply:  step (local_step when a LocalLink sends it)
#   fire-and-forget:          fatal (exc text), done (the node's report)
#   anything else:            "error" reply
# Reply (broker -> worker): (seq, status, data)
#   status: "ok" | "timeout" | "poisoned" | "error"
#   step args:       (consumes, puts, gets, timeout, replay) — one frame's
#                    traffic.
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

_STOP = ("-stop-", -1, "stop", ())


@dataclass
class _StepWaiter:
    """One step in flight inside the broker.

    ``consumes`` are applied once, on first dispatch; ``puts`` entries
    are ``[channel, conn_id, ts, encoded, size, applied]`` and ``gets``
    entries ``[channel, conn_id, ts, result-or-None]`` — per-sub-op
    completion flags make retries idempotent.
    """

    worker: int
    seq: int
    deadline: Optional[float]
    consumes: tuple
    puts: list
    gets: list
    replay: bool = False
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
    """Parent-side STM service: one thread, all channels, exact semantics.

    Parameters
    ----------
    channel_specs:
        ``{name: capacity}`` for every channel to host.

    After :meth:`record_into`, every put/get/consume is an
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
        self.requests = _mp_context().Queue()
        self._replies: dict[int, Any] = {}
        self.channels: dict[str, _BrokerChannel] = {
            name: _BrokerChannel(stm=STMChannel(name, capacity=cap))
            for name, cap in channel_specs.items()
        }
        self._trace: Optional[TraceRecorder] = None
        self._conns: dict[int, tuple[str, Connection]] = {}
        self._put_hw: dict[int, int] = {}
        self.errors: list[str] = []
        self.done_payloads: dict[int, Any] = {}
        self._thread: Optional[threading.Thread] = None
        self._t0 = _time.perf_counter()
        self._lock = threading.Lock()
        #: a LocalLink's parked step waits here; notified after every
        #: request served, every expiry and every poison
        self._cond = threading.Condition(self._lock)
        #: parked steps, retried to fixpoint after every mutation
        self._steps: list[_StepWaiter] = []
        #: requests served, by op — the broker round-trip accounting the
        #: scaling benchmark reads (``local_step`` is a LocalLink's step,
        #: which costs no queue round trip)
        self.op_counts: dict[str, int] = {}

    # -- parent-side setup --------------------------------------------------

    def register_worker(self, worker_id: int):
        """Create (and remember) the reply queue for one worker."""
        q = _mp_context().Queue()
        self._replies[worker_id] = q
        return q

    def local_link(self) -> "LocalLink":
        """The link for threads of this process (worker id 0), shared by
        them like a worker's threads share its :class:`WorkerLink`."""
        return self._replies.setdefault(LocalLink.worker_id, LocalLink(self))

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

    def conn_put_next(self, conn_id: int) -> int:
        """First timestamp connection ``conn_id`` has not yet put.

        Worker-respawn recovery resumes a source task here: everything at
        or below the high water already lives in (or passed through) STM.
        """
        hw = self._put_hw.get(conn_id)
        return 0 if hw is None else hw + 1

    def put_static(self, channel: str, value: Any, size: int = 0) -> None:
        """Populate a static configuration channel before workers start."""
        conn_id = self.attach_output(channel, "-env-")
        bc = self.channels[channel]
        bc.stm.put(self.conn(conn_id), 0, encode_value(value), size=size)

    def roundtrips(self) -> int:
        """Total queue round trips served (requests that got a reply)."""
        with self._lock:
            return self.op_counts.get("step", 0)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._t0 = _time.perf_counter()
        self._thread = threading.Thread(target=self._serve, name="stm-broker",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self.requests.put(_STOP)
            self._thread.join(timeout=10.0)
            self._thread = None
        self._unlink_all()

    def poison_all(self) -> None:
        with self._cond:
            for name in self.channels:
                self._poison_locked(name)
            self._cond.notify_all()

    @property
    def now(self) -> float:
        return _time.perf_counter() - self._t0

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-channel put/get/consume/collected counters."""
        with self._lock:
            return {name: bc.stm.stats() for name, bc in self.channels.items()}

    def gc_totals(self) -> tuple[int, int]:
        """(items collected, live-item high water) summed over channels."""
        with self._lock:
            return (
                sum(bc.gc_stats.collected for bc in self.channels.values()),
                sum(bc.gc_stats.high_water_items for bc in self.channels.values()),
            )

    # -- service loop -------------------------------------------------------

    def _serve(self) -> None:
        while True:
            try:
                msg = self.requests.get(timeout=0.02)
            except queue.Empty:
                with self._cond:
                    self._expire_steps()
                    self._cond.notify_all()
                continue
            if msg[2] == "stop":
                with self._cond:
                    self._cond.notify_all()
                return
            try:
                with self._cond:
                    self._serve_locked(msg)
            except Exception as exc:  # pragma: no cover - broker bug guard
                self.errors.append(f"broker: {exc!r}")
                with self._cond:
                    for name in self.channels:
                        self._poison_locked(name)
                    self._cond.notify_all()

    def _serve_locked(self, msg) -> None:
        """Serve one request (lock held) and wake every waiter."""
        self._dispatch(msg)
        self._retry_steps()
        self._expire_steps()
        self._cond.notify_all()

    def _reply(self, worker: int, seq: int, status: str, data: Any = None) -> None:
        q = self._replies.get(worker)
        if q is not None:
            q.put((seq, status, data))

    def record_into(self, trace: TraceRecorder) -> None:
        """Record every operation from now on into ``trace``."""
        self._trace = trace

    def _observe(self, channel: str, kind: str, ts: int, task: str) -> None:
        if self._trace is not None:
            self._trace.record_item(ItemEvent(self.now, channel, kind, ts, task))

    def _dispatch(self, msg) -> None:
        worker, seq, op, args = msg
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if op == "fatal":
            self.errors.append(args)
            for name in self.channels:
                self._poison_locked(name)
            return
        if op == "done":
            self.done_payloads[worker] = args
            return
        if op in ("step", "local_step"):
            consumes, puts, gets, timeout, replay = args
            st = _StepWaiter(
                worker=worker, seq=seq, deadline=self._deadline(timeout),
                consumes=tuple(consumes),
                puts=[list(p) + [False] for p in puts],
                gets=[list(g) + [None] for g in gets],
                replay=replay,
            )
            completed, _ = self._try_step(st)
            if not completed:
                self._steps.append(st)
            return
        self._reply(worker, seq, "error",
                    pickle.dumps(STMError(f"unknown op {op!r}")))

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else _time.monotonic() + timeout

    # -- steps --------------------------------------------------------------

    def _apply_put(self, bc: _BrokerChannel, conn_id: int, ts: int,
                   encoded: Any, size: int, replay: bool) -> None:
        """Insert one item with full bookkeeping (caller checked capacity).

        With ``replay=True`` a :class:`~repro.errors.DuplicateTimestamp`
        is an idempotent success — at-least-once delivery after a worker
        respawn: the item from the first attempt survived in the parent.
        Other STM errors propagate to the caller.
        """
        conn = self.conn(conn_id)
        try:
            bc.stm.put(conn, ts, encoded, size=size, time=self.now)
        except STMError as exc:
            from repro.errors import DuplicateTimestamp

            if replay and isinstance(exc, DuplicateTimestamp):
                return
            raise
        bc.producers[ts] = (conn_id, encoded)
        if ts > self._put_hw.get(conn_id, -1):
            self._put_hw[conn_id] = ts
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
                self._reply(st.worker, st.seq, "poisoned")
                return True, True
        if not st.consumed:
            st.consumed = True
            for channel, conn_id, ts in st.consumes:
                try:
                    self._consume_locked(channel, conn_id, ts)
                except STMError as exc:
                    self._reply(st.worker, st.seq, "error", pickle.dumps(exc))
                    return True, True
                progressed = True
        for entry in st.puts:
            if entry[5]:
                continue
            bc = self.channels[entry[0]]
            if bc.stm.is_full:
                continue
            try:
                self._apply_put(bc, entry[1], entry[2], entry[3], entry[4],
                                st.replay)
            except STMError as exc:
                self._reply(st.worker, st.seq, "error", pickle.dumps(exc))
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
                self._reply(st.worker, st.seq, "error", pickle.dumps(exc))
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
            self._reply(st.worker, st.seq, "ok",
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

    def _consume_locked(self, channel: str, conn_id: int, ts: int) -> None:
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
                self._reply(st.worker, st.seq, "timeout")
            else:
                keep.append(st)
        self._steps = keep

    def _poison_locked(self, name: str) -> None:
        bc = self.channels[name]
        if bc.poisoned:
            return
        bc.poisoned = True
        bc.stm.close()
        still = []
        for st in self._steps:
            if name in st.channels():
                self._reply(st.worker, st.seq, "poisoned")
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


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerLink:
    """One worker process's connection to the broker.

    Owns the request queue handle, the worker's reply queue, a sequence
    allocator, and the receiver thread that demultiplexes replies to the
    task threads waiting on them.
    """

    def __init__(self, worker_id: int, requests, replies) -> None:
        self.worker_id = worker_id
        self.requests = requests
        self.replies = replies
        self._seq = itertools.count(1)
        self._pending: dict[int, tuple[threading.Event, list]] = {}
        self._lock = threading.Lock()
        self._receiver: Optional[threading.Thread] = None
        self._stopped = False

    def start(self) -> None:
        self._receiver = threading.Thread(target=self._recv_loop,
                                          name="stm-replies", daemon=True)
        self._receiver.start()

    def stop(self) -> None:
        self._stopped = True

    def _recv_loop(self) -> None:
        while not self._stopped:
            try:
                seq, status, data = self.replies.get(timeout=0.1)
            except queue.Empty:
                continue
            except (OSError, EOFError):  # queue torn down at shutdown
                return
            with self._lock:
                entry = self._pending.pop(seq, None)
            if entry is not None:
                entry[1].extend((status, data))
                entry[0].set()

    def notify(self, op: str, payload: Any) -> None:
        """Fire-and-forget message (``fatal`` / ``done``)."""
        self.requests.put((self.worker_id, 0, op, payload))

    def call(self, op: str, args, timeout: Optional[float]) -> tuple[str, Any]:
        seq = next(self._seq)
        event = threading.Event()
        slot: list = []
        with self._lock:
            self._pending[seq] = (event, slot)
        self.requests.put((self.worker_id, seq, op, args))
        # The broker enforces the request timeout; the local wait only
        # guards against the broker itself dying, hence the grace margin.
        grace = 30.0 if timeout is None else timeout + 30.0
        if not event.wait(grace):
            with self._lock:
                self._pending.pop(seq, None)
            raise BrokerDied(f"no broker reply to {op}")
        return slot[0], slot[1]



class LocalLink:
    """A link for threads of the broker's own process: the parent's
    collectors, which drain the terminal channels left at the broker.

    The same step a :class:`WorkerLink` ships over two queues, served
    without them: the calling thread dispatches it itself, under the broker
    lock, as ``local_step`` (no queue round trip, so
    :meth:`ChannelBroker.roundtrips` does not count it).  A step that parks
    is completed, expired or poisoned by the broker's one step path like any
    other; the caller waits on the broker's condition, which each of those
    notifies, so its reply takes no thread hop.  Made by
    :meth:`ChannelBroker.local_link`.
    """

    worker_id = 0

    def __init__(self, broker: ChannelBroker) -> None:
        self._broker = broker
        self._seq = itertools.count(1)
        self._replies: dict[int, tuple[str, Any]] = {}

    def put(self, reply) -> None:
        """The broker's reply (called with its lock held)."""
        seq, status, data = reply
        self._replies[seq] = (status, data)

    def notify(self, op: str, payload: Any) -> None:
        """Fire-and-forget message (``fatal``)."""
        with self._broker._cond:
            self._broker._serve_locked((self.worker_id, 0, op, payload))

    def call(self, op: str, args, timeout: Optional[float]) -> tuple[str, Any]:
        seq = next(self._seq)
        # As on a WorkerLink, the broker enforces the request timeout; the
        # wait here only guards against its service thread being gone.
        deadline = _time.monotonic() + (30.0 if timeout is None else timeout + 30.0)
        cond = self._broker._cond
        with cond:
            self._broker._serve_locked((self.worker_id, seq, f"local_{op}", args))
            while seq not in self._replies:
                remaining = deadline - _time.monotonic()
                if remaining <= 0:
                    raise BrokerDied(f"no broker reply to local {op}")
                cond.wait(remaining)
            return self._replies.pop(seq)


class StepBatch:
    """One task thread's boundary traffic, one step per frame.

    A task's frame loop queues the previous frame's puts and consumes
    plus the current frame's gets, then :meth:`commit` ships them as one
    ``step`` request over ``link`` (a :class:`WorkerLink` or a
    :class:`LocalLink`).  The broker applies the consumes immediately (even
    while the step waits for capacity or data — so batching can never
    withhold resources and deadlock a pipeline), lands puts and gets as
    they become possible, and replies once everything has been applied.
    The reply carries the get results, the per-producer freed-timestamp
    feed, which recycles the batch's shared-memory rings (one per producer
    connection it has put through), and when the last put landed
    (:attr:`landed`).  A thread makes one batch and commits it every frame.

    Gets are restricted to exact integer timestamps: a wildcard resolved
    while the rest of the batch is still parked could be stale by the
    time the reply leaves, exact timestamps cannot — and exact gets are
    all the schedule-driven runtimes ever issue.
    """

    def __init__(self, link, replay: bool = False) -> None:
        self._link = link
        self._replay = replay
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
                timeout, self._replay)
        self._consumes.clear()
        self._puts.clear()
        self._gets.clear()
        status, data = self._link.call("step", args, timeout)
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
