"""The general on-line scheduler: a model of the pthread scheduler.

§3.2 lists exactly why this baseline is inefficient for the application
class; this implementation deliberately preserves those behaviours:

* it "focuses more on throughput": any ready thread gets any free
  processor, with no regard for stream position or dependencies;
* it time-slices: a thread runs for at most one quantum before being
  preempted and sent to the back of the ready queue, so it will "happily
  schedule a thread for enough time to generate two and a half items";
* "a thread can only be scheduled on one processor at a time" — a thread
  holds at most one grant;
* it knows nothing about the task graph, so "an early task [may] generate
  a large number of items [while] a later slower task is scheduled for the
  same time slice".

The scheduler is deterministic by default (FIFO queue, lowest-index free
processor).  ``jitter_seed`` enables seeded random victim selection, which
reproduces the "fairly erratic" timings the paper observed in the
saturated region of the tuning curve.

:class:`PthreadScheduler` is the one on-line scheduler body — the free
pool, grants, releases, fault awareness.  Its ready queue is two methods,
``_queue`` and ``_next``; :class:`~repro.sched.priority.
TimestampPriorityScheduler` overrides only those.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import ProcessError
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.faults.view import ClusterView

__all__ = ["PthreadScheduler"]


class PthreadScheduler:
    """FIFO ready queue + free-processor pool + fixed quantum.

    The dynamic executor asks it for processors: ``acquire`` returns an
    event that fires with the processor granted, ``release`` gives one back
    at the end of a quantum or of a work item, and ``invalidate`` drops a
    grant whose processor died mid-slice.

    Parameters
    ----------
    quantum:
        Time-slice length in seconds.  Digital Unix used ~10 ms round-robin
        quanta for timeshare threads; the quantum ablation sweeps this.
    jitter_seed:
        When set, the next thread to run is drawn (seeded) uniformly from
        the ready queue instead of FIFO — modelling scheduling noise.
    """

    def __init__(self, quantum: float = 0.010, jitter_seed: Optional[int] = None) -> None:
        if quantum <= 0:
            raise ProcessError(f"quantum must be positive, got {quantum}")
        self._quantum = float(quantum)
        self._rng = random.Random(jitter_seed) if jitter_seed is not None else None
        self._sim: Optional[Simulator] = None
        self._view: Optional["ClusterView"] = None
        self._free: list[int] = []
        self._ready = deque()
        self._held: dict[str, int] = {}
        self.grants = 0
        self.preemptions = 0

    @property
    def quantum(self) -> float:
        """Maximum uninterrupted execution slice in seconds."""
        return self._quantum

    def bind(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        view: Optional["ClusterView"] = None,
    ) -> None:
        """Attach to a simulation and cluster before execution starts.

        ``view`` (optional) is a live :class:`~repro.faults.view.ClusterView`:
        a processor it reports dead is never granted, and the processors of
        a recovered node rejoin the pool.
        """
        self._sim = sim
        self._view = view
        self._free = sorted(p.index for p in cluster.processors)
        self._ready.clear()
        self._held.clear()
        if view is not None:
            view.on_change(self._on_cluster_change)

    def _alive(self, proc: int) -> bool:
        return self._view is None or self._view.alive(proc)

    def acquire(self, thread: str, priority: Optional[float] = None) -> SimEvent:
        """Event firing with a processor index granted to ``thread``.

        ``priority`` carries the stream timestamp the thread is about to
        work on; only the ready queue reads it (the pthread model's is
        priority-blind).
        """
        if self._sim is None:
            raise ProcessError("scheduler not bound to a simulation")
        if thread in self._held:
            raise ProcessError(f"thread {thread!r} already holds processor {self._held[thread]}")
        ev = self._sim.event(("cpu-grant:{}", thread))
        if self._view is not None:
            self._free = [p for p in self._free if self._view.alive(p)]
        if self._free:
            proc = self._free.pop(0)
            self._held[thread] = proc
            self.grants += 1
            ev.succeed(proc)
        else:
            self._queue(thread, ev, priority)
        return ev

    def release(self, thread: str, proc: int) -> None:
        """Give the processor back (end of quantum or of work item)."""
        held = self._held.pop(thread, None)
        if held != proc:
            raise ProcessError(
                f"thread {thread!r} released processor {proc} but held {held}"
            )
        if not self._alive(proc):
            return  # died while held; recovery re-pools it
        self._grant_next(proc)

    def invalidate(self, thread: str, proc: int) -> None:
        """Drop ``thread``'s grant because ``proc`` died mid-slice.

        Unlike :meth:`release`, the processor is *not* handed to the next
        waiting thread — it is dead.  Recovery re-pools it via the bound
        view's change notifications.
        """
        held = self._held.pop(thread, None)
        if held != proc:
            raise ProcessError(
                f"thread {thread!r} invalidated processor {proc} but held {held}"
            )

    def _queue(self, thread: str, ev: SimEvent, priority: Optional[float]) -> None:
        """Put a waiting thread on the ready queue (the pthread model is
        priority-blind: ``priority`` is ignored)."""
        self._ready.append((thread, ev))

    def _next(self) -> tuple[str, SimEvent]:
        """Take the thread that runs next off the (non-empty) ready queue."""
        ready = self._ready
        if self._rng is None or len(ready) == 1:
            return ready.popleft()
        idx = self._rng.randrange(len(ready))
        ready.rotate(-idx)
        nxt = ready.popleft()
        ready.rotate(idx)
        return nxt

    def _grant_next(self, proc: int) -> None:
        """Hand ``proc`` to the next ready thread, or back to the pool."""
        if self._ready:
            nxt_thread, nxt_ev = self._next()
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
        """Threads waiting for a processor."""
        return len(self._ready)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(quantum={self._quantum:g}, grants={self.grants})"
