"""Minimal deterministic discrete-event simulation kernel.

The kernel is a heap of plain calls, dependency-free and fully
deterministic: entries for the same simulated time fire in the order they
were made (a monotone sequence number breaks ties), so a given program
produces an identical trace on every run.

Concepts
--------

``Simulator``
    Owns the clock and the heap.  A heap entry is ``(time, seq, fn, args)``
    and firing it is ``fn(*args)``; :meth:`Simulator.call_at` puts one there
    for an absolute time and ``run()`` pops them in (time, seq) order.

``SimEvent``
    A one-shot occurrence carrying a value, for a wait whose end somebody
    else decides (a processor grant, a channel's next change).
    :meth:`SimEvent.add_callback` hangs a continuation on it;
    :meth:`SimEvent.succeed` puts its firing on the heap, and firing runs
    the callbacks in the order they were added.  :meth:`Simulator.timeout`
    is an event that succeeds itself after a delay.

One way to wait
---------------

Every wait is a continuation: a plain call at a known time (``call_at``)
or a callback on an event.  Code whose next wait depends on what it finds
when it wakes is a small state machine over the two — the dynamic
executor's threads, a contended link transfer, the fault injector, the
heartbeats — and code that knows every continuation in advance is a chain
of calls (the placement body and the launch loop of the schedule-driven
executors).  A race between waits (a consumer's wait for whichever of
its inputs changes first) is a token every continuation checks: the
first to fire takes it, and the others — still on their events — find it
gone and do nothing.  Nothing is ever cancelled; the loser is removed
lazily.

Time is checked on the way in: a call at a time before the clock, or a
delay that is not a non-negative number (NaN included), raises
:class:`~repro.errors.SimTimeError`.

An event's ``name`` is only ever read by ``repr`` and :class:`ProcessError`,
so it may be given as ``(template, *args)`` and is formatted when first
read, not per event created.

:meth:`Simulator.process` is not part of this model.  It is a trampoline
that drives a generator yielding events, kept only because the end-to-end
benchmark's kernel probes call it and its span recorder wraps it; nothing
in ``repro`` calls it.

Example
-------

>>> sim = Simulator()
>>> log = []
>>> sim.call_at(2.0, log.append, "a")
>>> sim.timeout(1.0).add_callback(lambda ev: log.append((sim.now, "b")))
>>> _ = sim.run()
>>> log
[(1.0, 'b'), 'a']
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional, Union

from repro.errors import ProcessError, SimTimeError

#: An event name: the string, or ``(template, *args)`` formatted on first read.
Name = Union[str, tuple]

__all__ = ["Simulator", "SimEvent"]


class SimEvent:
    """A one-shot simulation event that callbacks can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (``succeed`` called; its firing sits in the heap), and *fired*
    (callbacks ran; ``value`` is final).  A callback added to an event that
    has already fired runs at once.
    """

    __slots__ = ("sim", "_name", "_callbacks", "_triggered", "_fired", "value")

    def __init__(self, sim: "Simulator", name: Name = "") -> None:
        self.sim = sim
        # An unnamed event is "event-<seq>": the number is taken now, the
        # string made when somebody reads it.
        self._name = name or sim._next_seq()
        self._callbacks: list[Callable[["SimEvent"], None]] = []
        self._triggered = False
        self._fired = False
        self.value: Any = None

    @property
    def name(self) -> str:
        """The event's name, formatted on first read (see the module notes)."""
        name = self._name
        if type(name) is not str:
            if type(name) is tuple:
                name = name[0].format(*name[1:])
            else:
                name = f"event-{name}"
            self._name = name
        return name

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` has been called."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run and ``value`` is final."""
        return self._fired

    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Schedule this event to fire with ``value`` after ``delay``."""
        if self._triggered:
            raise ProcessError(f"event {self.name} triggered twice")
        if not delay >= 0:
            raise SimTimeError(f"cannot schedule event {self.name} {delay}s in the past")
        self._triggered = True
        self.value = value
        self.sim.call_at(self.sim.now + delay, self._fire)
        return self

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if fired)."""
        if self._fired:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        self._fired = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        return f"<SimEvent {self.name} {state}>"


class Simulator:
    """The simulation clock and event loop.

    Parameters
    ----------
    start:
        Initial simulated time (seconds by convention throughout repro).
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now: float = float(start)
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = 0

    def event(self, name: Name = "") -> SimEvent:
        """Create a fresh pending event."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """An event that fires with ``value`` after ``delay`` simulated seconds."""
        return SimEvent(self, ("timeout({:g})", delay)).succeed(value, delay)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` when the clock reaches the absolute ``time``.

        Calls for one instant run in the order they were made, interleaved
        with the firings of that instant's events by the same sequence
        number.
        """
        if not time >= self.now:
            raise SimTimeError(f"cannot call {fn!r} at {time}: the clock reads {self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def process(self, gen: Generator, name: str = "") -> None:
        """Drive ``gen``, a generator that yields :class:`SimEvent` s, from the
        next heap entry on: each event's value is sent back in when it fires.

        A trampoline over :meth:`SimEvent.add_callback`, kept for the
        end-to-end benchmark's kernel probes and span recorder, which call
        and wrap it by name; nothing in ``repro`` starts a process.
        """
        if not hasattr(gen, "send"):
            raise ProcessError(f"process needs a generator, got {type(gen).__name__}")

        def resume(value: Any = None) -> None:
            try:
                event = gen.send(value)
            except StopIteration:
                return
            if not isinstance(event, SimEvent):
                raise ProcessError(
                    f"process {name} yielded {event!r}; processes must yield SimEvent instances"
                )
            event.add_callback(lambda fired: resume(fired.value))

        self.call_at(self.now, resume)

    def step(self) -> bool:
        """Fire the next heap entry.  Returns False if the heap is empty."""
        if not self._heap:
            return False
        self.now, _seq, fn, args = heappop(self._heap)
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or the clock passes ``until``.

        Fires entries as :meth:`step` does, in a loop of its own: a call per
        entry is a cost every entry of every run would pay."""
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self.now, _seq, fn, args = heappop(heap)
            fn(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next pending entry, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:g} pending={len(self._heap)}>"
