"""An earliest-timestamp-first on-line scheduler — the smartest baseline.

The paper's criticism of the pthread scheduler is that it "knows nothing
about the application class ... based on a small number of tasks that
process streams of time-indexed multimedia data".  A fair question: how
far does an *on-line* scheduler get if it knows exactly one thing — the
stream timestamp each thread is working on — and always runs the thread
processing the **oldest incomplete timestamp** first?

:class:`TimestampPriorityScheduler` implements that policy (a stream
analogue of earliest-deadline-first).  It removes the §3.2 pathology of
upstream tasks hogging processors while downstream tasks starve, but it
still cannot pre-place data-parallel variants or pipeline iterations —
the ablation benchmark shows how much of the optimal schedule's win
survives this stronger baseline.

The dynamic executor passes each CPU request's timestamp via
:meth:`acquire`'s ``priority`` argument; schedulers that ignore priorities
(the pthread model) simply do not override it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Optional

from repro.errors import ProcessError
from repro.sched.online import OnlineScheduler
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.faults.view import ClusterView

__all__ = ["TimestampPriorityScheduler"]


class TimestampPriorityScheduler(OnlineScheduler):
    """Grant processors to the thread with the smallest priority first.

    Priority is the stream timestamp being processed (lower = older =
    more urgent); ties break FIFO.  Quantum semantics match
    :class:`~repro.sched.online.PthreadScheduler`: a preempted thread
    re-queues with its (unchanged) priority, so an old frame's thread
    regains the processor immediately unless an even older frame waits.
    """

    def __init__(self, quantum: float = 0.010) -> None:
        if quantum <= 0:
            raise ProcessError(f"quantum must be positive, got {quantum}")
        self._quantum = float(quantum)
        self._sim: Optional[Simulator] = None
        self._view: Optional["ClusterView"] = None
        self._free: list[int] = []
        self._heap: list[tuple[float, int, str, SimEvent]] = []
        self._seq = itertools.count()
        self._held: dict[str, int] = {}
        self.grants = 0
        self.preemptions = 0

    @property
    def quantum(self) -> float:
        return self._quantum

    def bind(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        view: Optional["ClusterView"] = None,
    ) -> None:
        self._sim = sim
        self._view = view
        self._free = sorted(p.index for p in cluster.processors)
        self._heap.clear()
        self._held.clear()
        if view is not None:
            view.on_change(self._on_cluster_change)

    def _alive(self, proc: int) -> bool:
        return self._view is None or self._view.alive(proc)

    def acquire(self, thread: str, priority: Optional[float] = None) -> SimEvent:
        if self._sim is None:
            raise ProcessError("scheduler not bound to a simulation")
        if thread in self._held:
            raise ProcessError(
                f"thread {thread!r} already holds processor {self._held[thread]}"
            )
        ev = self._sim.event(("cpu-grant:{}", thread))
        if self._view is not None:
            self._free = [p for p in self._free if self._view.alive(p)]
        if self._free:
            proc = self._free.pop(0)
            self._held[thread] = proc
            self.grants += 1
            ev.succeed(proc)
        else:
            prio = priority if priority is not None else float("inf")
            heapq.heappush(self._heap, (prio, next(self._seq), thread, ev))
        return ev

    def release(self, thread: str, proc: int) -> None:
        held = self._held.pop(thread, None)
        if held != proc:
            raise ProcessError(
                f"thread {thread!r} released processor {proc} but held {held}"
            )
        if not self._alive(proc):
            return  # died while held; recovery re-pools it
        self._grant_next(proc)

    def invalidate(self, thread: str, proc: int) -> None:
        held = self._held.pop(thread, None)
        if held != proc:
            raise ProcessError(
                f"thread {thread!r} invalidated processor {proc} but held {held}"
            )

    def _grant_next(self, proc: int) -> None:
        if self._heap:
            _prio, _seq, nxt_thread, nxt_ev = heapq.heappop(self._heap)
            self._held[nxt_thread] = proc
            self.grants += 1
            nxt_ev.succeed(proc)
        else:
            self._free.append(proc)
            self._free.sort()

    def _on_cluster_change(self, kind: str, target: int) -> None:
        if kind != "recovery" or self._view is None:
            return
        busy = set(self._held.values()) | set(self._free)
        returned = [
            p.index
            for p in self._view.base.node_processors(target)
            if self._view.alive(p.index) and p.index not in busy
        ]
        for proc in sorted(returned):
            self._grant_next(proc)

    @property
    def ready_queue_length(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return f"TimestampPriorityScheduler(quantum={self._quantum:g}, grants={self.grants})"
