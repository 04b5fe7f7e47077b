"""A counted resource for the simulation kernel.

:class:`Resource` is a pool of identical units (a link, a memory bus).
``request()`` returns an event that fires with a grant once a unit is
free; ``release()`` hands the unit to the oldest waiter.  Granting is
strictly FIFO so simulations stay deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import ProcessError
from repro.sim.engine import SimEvent, Simulator

__all__ = ["Resource"]


class Resource:
    """A counted resource with FIFO granting.

    >>> sim = Simulator()
    >>> cpu = Resource(sim, capacity=1)
    >>> out = []
    >>> def job(name):
    ...     def granted(grant):
    ...         sim.call_at(sim.now + 1.0, done, grant)
    ...     def done(grant):
    ...         out.append((sim.now, name))
    ...         cpu.release(grant)
    ...     cpu.request().add_callback(granted)
    >>> job("a"); job("b")
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
        """Release one granted unit; wakes the oldest waiter, if any.

        A grant is its own request event, whose value is the grant: the
        spent ``grant`` forgets that value, so a finished transfer leaves
        no event pointing at itself for the cycle collector."""
        if self._in_use <= 0:
            raise ProcessError(f"release on idle resource {self.name}")
        if grant is not None:
            grant.value = None
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(waiter)  # unit transfers directly to the waiter
        else:
            self._in_use -= 1
