"""Pass 4: dynamic race & deadlock detection (rules ``R001``-``R002``).

A happens-before checker in the FastTrack/DJIT+ family, built on vector
clocks:

* every thread carries a vector clock ``C[t]``;
* releasing a tracked lock publishes the releaser's clock on the lock;
  acquiring joins it — the classic release/acquire edge;
* putting an STM item publishes the producer's clock on ``(channel, ts)``;
  getting that item joins it — the message edge that makes properly
  channel-synchronized code race-free even without shared locks;
* :meth:`RaceChecker.fork` / :meth:`RaceChecker.adopt` thread the clock
  across thread start/join.

Shared locations report reads and writes as *epochs* ``(thread, count)``;
an access races when the previous conflicting epoch is not ordered before
it (``c_u > C_t[u]``).  Alongside, every nested lock acquisition records a
lock-order edge; cycles in that graph are potential deadlocks (``R002``).

The checker is opt-in and threaded through the live runtime via the
``analysis=`` hook (mirroring ``obs=``): instrumented channels replace
their plain lock with :meth:`RaceChecker.tracked_lock`, so every critical
section — including the release/re-acquire inside ``Condition.wait`` —
reports to the checker with no changes to channel logic.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.analysis.findings import AnalysisReport

__all__ = ["TrackedLock", "RaceChecker"]

_MAX_RACES = 64  # per checker; dedup makes this hard to hit


def _join(a: dict[int, int], b: dict[int, int]) -> None:
    """In-place element-wise max: ``a |= b``."""
    for k, v in b.items():
        if a.get(k, 0) < v:
            a[k] = v


def _sccs(nodes: list[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components (iterative Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


class TrackedLock:
    """A mutex that reports acquire/release to a :class:`RaceChecker`.

    Exposes the :class:`threading.Lock` protocol, so it can back a
    :class:`threading.Condition` — whose ``wait()`` then reports the
    internal release/re-acquire pair automatically (no false races between
    a blocked getter and the producer that wakes it).
    """

    def __init__(self, checker: "RaceChecker", name: str) -> None:
        self._lock = threading.Lock()
        self._checker = checker
        self._name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            self._checker.on_acquire(self._name)
        return ok

    def release(self) -> None:
        self._checker.on_release(self._name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self._name!r})"


class RaceChecker:
    """Vector-clock happens-before checker shared by all tracked threads.

    All hook methods are thread-safe and cheap (a dict join under one
    internal lock); the internal lock orders the event stream but creates
    no happens-before edges — only tracked locks and channel items do.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        # Stable per-thread ids: the OS reuses ``threading.get_ident``
        # values once a thread exits, which would alias two distinct
        # threads' clocks (and silently hide their races), so each thread
        # gets a fresh sequential id on first contact via a thread-local.
        self._tls = threading.local()
        self._next_tid = 0
        self._clocks: dict[int, dict[int, int]] = {}
        self._lock_clocks: dict[str, dict[int, int]] = {}
        self._item_clocks: dict[tuple[str, int], dict[int, int]] = {}
        # location -> last write epoch (tid, count, thread name)
        self._writes: dict[str, tuple[int, int, str]] = {}
        # location -> {tid: (count, thread name)} reads since last write
        self._reads: dict[str, dict[int, tuple[int, str]]] = {}
        # lock-order edges: held -> acquired, with an example thread
        self._lock_order: dict[str, set[str]] = {}
        self._edge_threads: dict[tuple[str, str], str] = {}
        self._held: dict[int, list[str]] = {}
        self._races: list[tuple[str, str]] = []  # (location, message)
        self._race_keys: set[tuple] = set()

    # -- clock plumbing -----------------------------------------------------

    def _tid(self) -> int:
        """This thread's checker-stable id (allocated on first contact)."""
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            with self._mu:
                tid = self._next_tid
                self._next_tid += 1
            self._tls.tid = tid
        return tid

    def _clock(self, tid: int) -> dict[int, int]:
        c = self._clocks.get(tid)
        if c is None:
            c = self._clocks[tid] = {tid: 1}
        return c

    def fork(self) -> dict[int, int]:
        """Snapshot the calling thread's clock (pass to a thread you start,
        or hand back to the thread that joins you)."""
        tid = self._tid()
        with self._mu:
            c = self._clock(tid)
            snap = dict(c)
            c[tid] = c.get(tid, 0) + 1
        return snap

    def adopt(self, token: dict[int, int]) -> None:
        """Join a :meth:`fork` token into the calling thread's clock."""
        tid = self._tid()
        with self._mu:
            _join(self._clock(tid), token)

    # -- lock events --------------------------------------------------------

    def tracked_lock(self, name: str) -> TrackedLock:
        """A lock whose critical sections synchronize through this checker."""
        return TrackedLock(self, name)

    def on_acquire(self, lock: str) -> None:
        tid = self._tid()
        with self._mu:
            _join(self._clock(tid), self._lock_clocks.get(lock, {}))
            held = self._held.setdefault(tid, [])
            for h in held:
                if h != lock:
                    self._lock_order.setdefault(h, set()).add(lock)
                    self._edge_threads.setdefault(
                        (h, lock), threading.current_thread().name
                    )
            held.append(lock)

    def on_release(self, lock: str) -> None:
        tid = self._tid()
        with self._mu:
            c = self._clock(tid)
            self._lock_clocks[lock] = dict(c)
            c[tid] = c.get(tid, 0) + 1
            held = self._held.get(tid, [])
            if lock in held:
                held.remove(lock)

    # -- channel-item events ------------------------------------------------

    def on_put(self, channel: str, ts: int) -> None:
        """Producer publishes its clock on item ``(channel, ts)``."""
        tid = self._tid()
        with self._mu:
            c = self._clock(tid)
            self._item_clocks[(channel, ts)] = dict(c)
            c[tid] = c.get(tid, 0) + 1

    def on_get(self, channel: str, ts: int) -> None:
        """Consumer joins the producing put's clock."""
        tid = self._tid()
        with self._mu:
            _join(self._clock(tid), self._item_clocks.get((channel, ts), {}))

    # -- shared-location accesses -------------------------------------------

    def _record_race(
        self, location: str, kind_a: str, name_a: str, kind_b: str, name_b: str
    ) -> None:
        key = (location, frozenset(((kind_a, name_a), (kind_b, name_b))))
        if key in self._race_keys or len(self._races) >= _MAX_RACES:
            return
        self._race_keys.add(key)
        self._races.append(
            (
                location,
                f"{kind_b} by thread {name_b!r} races with {kind_a} by "
                f"thread {name_a!r} on {location!r} (no happens-before edge)",
            )
        )

    def on_read(self, location: str) -> None:
        tid = self._tid()
        name = threading.current_thread().name
        with self._mu:
            c = self._clock(tid)
            w = self._writes.get(location)
            if w is not None and w[0] != tid and w[1] > c.get(w[0], 0):
                self._record_race(location, "write", w[2], "read", name)
            self._reads.setdefault(location, {})[tid] = (c.get(tid, 0), name)

    def on_write(self, location: str) -> None:
        tid = self._tid()
        name = threading.current_thread().name
        with self._mu:
            c = self._clock(tid)
            w = self._writes.get(location)
            if w is not None and w[0] != tid and w[1] > c.get(w[0], 0):
                self._record_race(location, "write", w[2], "write", name)
            for rtid, (count, rname) in self._reads.get(location, {}).items():
                if rtid != tid and count > c.get(rtid, 0):
                    self._record_race(location, "read", rname, "write", name)
            self._writes[location] = (tid, c.get(tid, 0), name)
            self._reads[location] = {}

    # -- reporting ----------------------------------------------------------

    @property
    def race_count(self) -> int:
        with self._mu:
            return len(self._races)

    def report(self, report: Optional[AnalysisReport] = None) -> AnalysisReport:
        """Findings accumulated so far (R001 races, R002 lock cycles)."""
        report = report if report is not None else AnalysisReport()
        with self._mu:
            races = list(self._races)
            order = {k: set(v) for k, v in self._lock_order.items()}
            edge_threads = dict(self._edge_threads)
        for location, message in races:
            report.add("R001", location, message)
        nodes = sorted(set(order) | {w for vs in order.values() for w in vs})
        for comp in _sccs(nodes, order):
            if len(comp) < 2:
                continue
            members = sorted(comp)
            witnesses = sorted(
                {
                    t
                    for (a, b), t in edge_threads.items()
                    if a in comp and b in comp
                }
            )
            report.add(
                "R002",
                f"locks:{'+'.join(members)}",
                f"locks {members} are acquired in conflicting orders by "
                f"threads {witnesses}; the cycle can deadlock",
            )
        return report
