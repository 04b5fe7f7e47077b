"""Blocking resources for the simulation kernel.

Two primitives cover everything the runtime needs:

* :class:`Resource` — a counted resource (e.g. a processor, or a pool of
  data-parallel workers).  ``request()`` returns an event that fires when a
  unit is granted; ``release()`` hands the unit to the next waiter, FIFO.
* :class:`Store` — an unbounded-or-bounded FIFO of Python objects with
  blocking ``put``/``get``.  STM channels and the splitter/worker work queue
  are built on stores.

Both are strictly FIFO so simulations stay deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import ProcessError
from repro.sim.engine import SimEvent, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource with FIFO granting.

    >>> sim = Simulator()
    >>> cpu = Resource(sim, capacity=1)
    >>> def job(sim, cpu, name, out):
    ...     grant = yield cpu.request()
    ...     yield sim.timeout(1.0)
    ...     out.append((sim.now, name))
    ...     cpu.release(grant)
    >>> out = []
    >>> _ = sim.process(job(sim, cpu, "a", out))
    >>> _ = sim.process(job(sim, cpu, "b", out))
    >>> _ = sim.run()
    >>> out
    [(1.0, 'a'), (2.0, 'b')]
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ProcessError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        self._waiters: Deque[SimEvent] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted units."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free units."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of pending requests."""
        return len(self._waiters)

    def request(self) -> SimEvent:
        """Return an event that fires (with a grant token) when a unit frees."""
        ev = self.sim.event(("{}-request", self.name))
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(ev)
        else:
            self._waiters.append(ev)
        return ev

    def release(self, grant: SimEvent | None = None) -> None:
        """Release one granted unit; wakes the oldest waiter, if any."""
        if self._in_use <= 0:
            raise ProcessError(f"release on idle resource {self.name}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(waiter)  # unit transfers directly to the waiter
        else:
            self._in_use -= 1

    def cancel(self, request_event: SimEvent) -> bool:
        """Withdraw a pending (unfired) request.  Returns True if removed."""
        try:
            self._waiters.remove(request_event)
            return True
        except ValueError:
            return False


class Store:
    """A FIFO object store with blocking put/get.

    ``capacity=None`` means unbounded (puts never block).  The store wakes
    getters and putters in arrival order, which keeps simulations
    deterministic and models the FIFO wait queues of a real runtime.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ProcessError(f"store capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple[SimEvent, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True if a put would block right now."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> SimEvent:
        """Return an event that fires once ``item`` is in the store."""
        ev = self.sim.event(("{}-put", self.name))
        if self._getters:
            # Hand the item straight to the oldest getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif not self.is_full:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> SimEvent:
        """Return an event that fires with the oldest item."""
        ev = self.sim.event(("{}-get", self.name))
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            self._admit_putter()
        elif self._putters:
            put_ev, item = self._putters.popleft()
            put_ev.succeed()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: (True, item) or (False, None)."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek(self) -> Any:
        """The oldest item without removing it (None if empty)."""
        return self._items[0] if self._items else None

    def drain(self) -> list[Any]:
        """Remove and return every stored item (does not wake putters)."""
        out = list(self._items)
        self._items.clear()
        while self._putters and not self.is_full:
            self._admit_putter()
        return out

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev, item = self._putters.popleft()
            self._items.append(item)
            put_ev.succeed()
