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
:meth:`~repro.sched.online.PthreadScheduler.acquire`'s ``priority``
argument.  Everything but the ready queue is the pthread scheduler's body.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.sched.online import PthreadScheduler
from repro.sim.engine import SimEvent

__all__ = ["TimestampPriorityScheduler"]


class TimestampPriorityScheduler(PthreadScheduler):
    """Grant processors to the thread with the smallest priority first.

    Priority is the stream timestamp being processed (lower = older =
    more urgent); ties break FIFO, and a request without one waits behind
    every request with one.  Quantum semantics are the pthread model's: a
    preempted thread re-queues with its (unchanged) priority, so an old
    frame's thread regains the processor immediately unless an even older
    frame waits.
    """

    def __init__(self, quantum: float = 0.010) -> None:
        super().__init__(quantum)
        self._ready: list[tuple[float, int, str, SimEvent]] = []
        self._arrivals = itertools.count()

    def _queue(self, thread: str, ev: SimEvent, priority: Optional[float]) -> None:
        prio = priority if priority is not None else float("inf")
        heapq.heappush(self._ready, (prio, next(self._arrivals), thread, ev))

    def _next(self) -> tuple[str, SimEvent]:
        _prio, _seq, thread, ev = heapq.heappop(self._ready)
        return thread, ev
