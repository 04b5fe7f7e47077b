"""Minimal deterministic discrete-event simulation kernel.

The kernel is deliberately simpy-shaped but dependency-free and fully
deterministic: events scheduled for the same simulated time fire in
scheduling order (a monotone sequence number breaks ties), so a given
program produces an identical trace on every run.

Concepts
--------

``Simulator``
    Owns the clock and the event heap.  ``run()`` pops events in
    (time, sequence) order and fires their callbacks.

``SimEvent``
    A one-shot occurrence.  Processes wait on events by ``yield``-ing them;
    calling :meth:`SimEvent.succeed` (or :meth:`SimEvent.fail`) schedules the
    event to fire, which resumes every waiting process.

``Process``
    Wraps a generator.  Each ``yield`` must produce a :class:`SimEvent` (or
    a :class:`Timeout`, which is an event pre-scheduled to fire after a
    delay).  The process resumes with the event's value when it fires.

Two ways to wait on one heap
----------------------------

A heap entry is ``(time, seq, fn, args)`` and firing it is ``fn(*args)``.
:meth:`Simulator.call_at` puts a plain call there — absolute time, no
:class:`SimEvent`, no :class:`Process`, no name — which is all a replay
needs when nothing is decided at run time (the placement body and the
launch loop of the static and the fault-tolerant executor: every wait has
one known continuation, and a lost frame's entries fire as no-ops).  A
generator :class:`Process` is for code whose next wait depends on what it
finds when it wakes (the dynamic executor's scheduler quanta, contended
link transfers, the fault injector and the detector's heartbeats); an event
firing is the same kind of heap entry, ``(time, seq, ev._fire, ())``.

An event's ``name`` is only ever read by ``repr``, :class:`ProcessError`
and :class:`SimDeadlock`, so it may be given as ``(template, *args)`` and is
formatted when first read, not per event created.

Example
-------

>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.errors import ProcessError, SimDeadlock, SimTimeError

#: An event name: the string, or ``(template, *args)`` formatted on first read.
Name = Union[str, tuple]

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "AnyOf",
]


class SimEvent:
    """A one-shot simulation event that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (``succeed``/``fail`` called; sits in the event heap), and *fired*
    (callbacks ran; ``value`` is final).  Waiting on an already-fired event
    resumes the waiter immediately (at the current simulated time).
    """

    __slots__ = ("sim", "_name", "_callbacks", "_triggered", "_fired", "value", "_ok")

    def __init__(self, sim: "Simulator", name: Name = "") -> None:
        self.sim = sim
        # An unnamed event is "event-<seq>": the number is taken now, the
        # string made when somebody reads it.
        self._name = name or sim._next_seq()
        self._callbacks: list[Callable[["SimEvent"], None]] = []
        self._triggered = False
        self._fired = False
        self.value: Any = None
        self._ok = True

    # -- state inspection ---------------------------------------------------

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
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run and ``value`` is final."""
        return self._fired

    @property
    def ok(self) -> bool:
        """False if the event carries an exception (``fail`` was called)."""
        return self._ok

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Schedule this event to fire with ``value`` after ``delay``."""
        if self._triggered:
            raise ProcessError(f"event {self.name} triggered twice")
        self._triggered = True
        self.value = value
        self._ok = True
        self.sim._schedule(delay, self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "SimEvent":
        """Schedule this event to fire by raising ``exc`` in all waiters."""
        if self._triggered:
            raise ProcessError(f"event {self.name} triggered twice")
        if not isinstance(exc, BaseException):
            raise ProcessError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self.value = exc
        self._ok = False
        self.sim._schedule(delay, self)
        return self

    # -- waiting --------------------------------------------------------------

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


class Timeout(SimEvent):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimTimeError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=("timeout({:g})", delay))
        self.delay = delay
        self._triggered = True
        self.value = value
        sim._schedule(delay, self)


class AnyOf(SimEvent):
    """Fires as soon as any child event fires; value is (index, value)."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]) -> None:
        super().__init__(sim, name="anyof")
        self._children = list(events)
        if not self._children:
            raise ProcessError("AnyOf needs at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda fired, idx=idx: self._child_fired(idx, fired))

    def _child_fired(self, idx: int, ev: SimEvent) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed((idx, ev.value))


class Process(SimEvent):
    """A generator-driven simulated process.

    A process is itself an event: it fires (with the generator's return
    value) when the generator finishes, so processes can wait on each other
    by yielding the :class:`Process` object.
    """

    __slots__ = ("gen", "alive")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise ProcessError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self.alive = True
        # Kick off at current time, but via the event queue so creation
        # order and time ordering stay deterministic.
        sim.call_at(sim.now, self._resume, None, None)

    # -- internals -------------------------------------------------------------

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self.alive:
            return
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self._exit()
            self.succeed(stop.value)
            return
        except BaseException as err:
            self._exit()
            if self._callbacks:
                self.fail(err)
            else:
                raise
            return
        if not isinstance(target, SimEvent):
            self._exit()
            raise ProcessError(
                f"process {self.name} yielded {target!r}; "
                "processes must yield SimEvent instances"
            )
        target.add_callback(self._on_event)

    def _exit(self) -> None:
        """The generator is finished: the simulator forgets the process (and
        with it the generator frame), so a long run holds only live ones."""
        self.alive = False
        self.sim._processes.pop(self, None)

    def _on_event(self, ev: SimEvent) -> None:
        if ev.ok:
            self._resume(ev.value, None)
        else:
            self._resume(None, ev.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {'alive' if self.alive else 'done'}>"


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
        # Live registered processes, in creation order (Process._exit drops
        # a finished one): what run(check_deadlock=True) reports.
        self._processes: dict[Process, None] = {}

    # -- construction helpers ---------------------------------------------------

    def event(self, name: Name = "") -> SimEvent:
        """Create a fresh pending event."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a simulated process and start it."""
        proc = Process(self, gen, name=name)
        self._processes[proc] = None
        return proc

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _schedule(self, delay: float, ev: SimEvent) -> None:
        if delay < 0:
            raise SimTimeError(f"cannot schedule event {ev.name} {delay}s in the past")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, ev._fire, ()))

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` when the clock reaches the absolute ``time``.

        The lean way onto the heap: no :class:`SimEvent`, no
        :class:`Process`, no name.  Calls for one instant run in the order
        they were made, interleaved with the events of that instant by the
        same sequence number.
        """
        if time < self.now:
            raise SimTimeError(f"cannot call {fn!r} at {time}: the clock reads {self.now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, fn, args))

    # -- running --------------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next heap entry.  Returns False if the heap is empty."""
        if not self._heap:
            return False
        time, _seq, fn, args = heappop(self._heap)
        if time < self.now:  # pragma: no cover - guarded by _schedule / call_at
            raise SimTimeError(f"time went backwards: {time} < {self.now}")
        self.now = time
        fn(*args)
        return True

    def run(self, until: Optional[float] = None, *, check_deadlock: bool = False) -> float:
        """Run until the heap drains or the clock passes ``until``.

        With ``check_deadlock=True``, raise :class:`~repro.errors.SimDeadlock`
        if the heap drains while registered processes are still alive and
        blocked on unfired events.
        """
        while self._heap:
            next_time = self._heap[0][0]
            if until is not None and next_time > until:
                self.now = until
                return self.now
            self.step()
        if check_deadlock:
            blocked = [p.name for p in self._processes]
            if blocked:
                raise SimDeadlock(blocked)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:g} pending={len(self._heap)}>"
