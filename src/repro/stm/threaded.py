"""Thread-safe blocking STM channel for the live (real-thread) runtime.

Stampede threads are "dynamic Posix threads"; our live runtime uses Python
threads.  :class:`ThreadedChannel` wraps :class:`~repro.stm.channel.STMChannel`
with two condition variables on one lock, so that

* ``get`` blocks until an item satisfying the request exists, and is woken
  only by a put ("an item landed"),
* ``put`` blocks while the channel is at capacity, and is woken only by a
  consume whose collection freed an item ("room was made"),
* ``poison`` wakes all blocked threads with :class:`ChannelPoisoned`
  (end-of-stream shutdown), and
* garbage collection runs opportunistically after each consume.

A thread is woken only when the change may let it proceed: a consume that
frees nothing wakes nobody, and a put wakes no other putter.

Timeouts are supported on both operations so tests never hang; each
operation's timeout is one deadline, however often the channel changes
while it waits.

Note on fidelity: the GIL serializes Python bytecode, so wall-clock
latencies measured through this runtime do not model a real SMP — that is
what :mod:`repro.sim` is for.  The threaded runtime exists to demonstrate
the API under genuine concurrency and to run the tracker kernels (which
release the GIL inside NumPy) end to end.
"""

from __future__ import annotations

import threading
import time as _time
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ItemConsumed, ItemUnavailable, STMError
from repro.sim.trace import ItemEvent, TraceRecorder
from repro.stm.channel import STMChannel, Timestamp
from repro.stm.connection import Connection
from repro.stm.gc import GCStats, collect_channel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.analysis.race import RaceChecker

__all__ = ["ChannelPoisoned", "ThreadedChannel"]


class ChannelPoisoned(STMError):
    """Raised in blocked threads when a channel is poisoned (shutdown)."""


class ThreadedChannel:
    """Blocking wrapper around one STM channel.

    All methods are thread-safe.  The wrapped synchronous channel is not
    exposed for mutation; inspection helpers proxy through the lock.

    One lock, two conditions on it: a blocked ``get`` waits for "an item
    landed", which only ``put`` notifies; a blocked ``put`` waits for "room
    was made", which ``consume`` notifies only when its collection freed an
    item.  ``poison`` and ``detach`` notify both.

    After :meth:`record_into`, every put/get/consume is an
    :class:`~repro.sim.trace.ItemEvent` of a run's trace; it is recorded
    *outside* the channel lock so telemetry never extends the critical
    section.

    ``analysis`` optionally threads a
    :class:`~repro.analysis.race.RaceChecker` through the channel: the
    internal mutex becomes a tracked lock (so every critical section —
    including the release/re-acquire inside ``Condition.wait`` — reports
    happens-before edges), channel state accesses report as reads/writes,
    and each put publishes a message edge its get joins.
    """

    def __init__(
        self,
        name: str,
        capacity: Optional[int] = None,
        analysis: Optional["RaceChecker"] = None,
    ) -> None:
        self._chan = STMChannel(name, capacity=capacity)
        if analysis is not None:
            self._lock = analysis.tracked_lock(f"lock:channel:{name}")
        else:
            self._lock = threading.Lock()
        self._landed = threading.Condition(self._lock)  # getters wait here
        self._room = threading.Condition(self._lock)  # putters wait here
        self._poisoned = False
        self._trace: Optional[TraceRecorder] = None
        self._t0 = 0.0
        self._analysis = analysis
        self._race_loc = f"channel:{name}"
        self.gc_stats = GCStats()

    def record_into(self, trace: TraceRecorder, t0: float) -> None:
        """Record every operation from now on into ``trace``, stamped in
        seconds since ``t0`` (a ``time.perf_counter()`` reading)."""
        self._trace, self._t0 = trace, t0

    def _observe(self, kind: str, ts: int, task: str) -> None:
        trace = self._trace
        if trace is not None:
            trace.record_item(
                ItemEvent(_time.perf_counter() - self._t0, self.name, kind, ts, task)
            )

    @property
    def name(self) -> str:
        return self._chan.name

    # -- attachment (thread-safe) -------------------------------------------

    def attach_input(self, task: str) -> Connection:
        with self._lock:
            return self._chan.attach_input(task)

    def attach_output(self, task: str) -> Connection:
        with self._lock:
            return self._chan.attach_output(task)

    def detach(self, conn: Connection) -> None:
        with self._lock:
            self._chan.detach(conn)
            self._landed.notify_all()
            self._room.notify_all()

    # -- blocking API ----------------------------------------------------------

    def _wait(self, cond: threading.Condition, deadline: Optional[float],
              timeout: Optional[float], op: str, why: str = "") -> Optional[float]:
        """Sleep (lock held) until ``cond`` is notified; returns the deadline.

        An operation has one absolute deadline, taken when it first has to
        wait, so wake-ups that do not let it proceed do not restart its
        ``timeout`` — and an operation that never waits reads no clock.
        """
        if timeout is None:
            cond.wait()
            return None
        now = _time.monotonic()
        if deadline is None:
            deadline = now + timeout
        if now >= deadline or not cond.wait(deadline - now):
            raise TimeoutError(
                f"{op} {self.name!r} timed out after {timeout}s{why}"
            )
        return deadline

    def put(
        self,
        conn: Connection,
        ts: int,
        value: Any,
        size: int = 0,
        timeout: Optional[float] = None,
    ) -> float:
        """Insert an item, blocking while the channel is at capacity.

        Returns when it landed (a ``time.perf_counter()`` reading).
        """
        deadline = None
        with self._lock:
            while True:
                if self._poisoned:
                    raise ChannelPoisoned(f"channel {self.name!r} poisoned")
                if not self._chan.is_full:
                    landed = _time.perf_counter()
                    self._chan.put(conn, ts, value, size=size, time=landed)
                    if self._analysis is not None:
                        self._analysis.on_write(self._race_loc)
                        self._analysis.on_put(self.name, ts)
                    self._landed.notify_all()
                    break
                deadline = self._wait(self._room, deadline, timeout, "put to", " (full)")
        self._observe("put", ts, conn.task)
        return landed

    def get(
        self,
        conn: Connection,
        ts: Timestamp,
        timeout: Optional[float] = None,
    ) -> tuple[int, Any]:
        """Retrieve ``(timestamp, value)``, blocking until available."""
        deadline = None
        with self._lock:
            while True:
                if self._poisoned:
                    raise ChannelPoisoned(f"channel {self.name!r} poisoned")
                try:
                    got = self._chan.get(conn, ts)
                except ItemUnavailable:
                    deadline = self._wait(self._landed, deadline, timeout, "get from")
                    continue
                if self._analysis is not None:
                    self._analysis.on_read(self._race_loc)
                    self._analysis.on_get(self.name, got[0])
                break
        self._observe("get", got[0], conn.task)
        return got

    def try_get(self, conn: Connection, ts: Timestamp) -> Optional[tuple[int, Any]]:
        """Non-blocking get: None on a miss.

        A born-consumed item is a miss too, not an error — same rule as
        :meth:`repro.runtime.hub.ChannelHub.try_get`, so a drain that
        skipped ahead under saturation behaves identically on both.
        """
        with self._lock:
            if self._analysis is not None:
                self._analysis.on_read(self._race_loc)
            try:
                got = self._chan.get(conn, ts)
            except (ItemConsumed, ItemUnavailable):
                return None
            if self._analysis is not None:
                self._analysis.on_get(self.name, got[0])
            return got

    def consume(self, conn: Connection, ts: int) -> None:
        """Mark ``ts`` consumed and garbage-collect; wakes blocked putters
        if the collection made room."""
        with self._lock:
            self._chan.consume(conn, ts)
            freed = collect_channel(self._chan, self.gc_stats)
            if self._analysis is not None:
                self._analysis.on_write(self._race_loc)
            if freed:
                self._room.notify_all()
        self._observe("consume", ts, conn.task)

    def poison(self) -> None:
        """Wake every blocked thread with :class:`ChannelPoisoned`."""
        with self._lock:
            self._poisoned = True
            self._chan.close()
            if self._analysis is not None:
                self._analysis.on_write(self._race_loc)
            self._landed.notify_all()
            self._room.notify_all()

    # -- inspection ---------------------------------------------------------------

    @property
    def waiting_threads(self) -> int:
        """How many threads are blocked inside :meth:`get` / :meth:`put`.

        Test hook: lets tests wait deterministically for "the other thread
        has blocked" instead of sleeping a magic duration.
        """
        return len(self._landed._waiters) + len(self._room._waiters)  # type: ignore[attr-defined]

    def __len__(self) -> int:
        with self._lock:
            return len(self._chan)

    def newest_timestamp(self) -> Optional[int]:
        with self._lock:
            return self._chan.newest_timestamp()

    def live_bytes(self) -> int:
        with self._lock:
            return self._chan.live_bytes()

    @property
    def stats(self) -> dict[str, int]:
        """Counters snapshot: puts/gets/consumed/collected."""
        with self._lock:
            return self._chan.stats()

    def __repr__(self) -> str:
        return f"ThreadedChannel({self.name!r})"
