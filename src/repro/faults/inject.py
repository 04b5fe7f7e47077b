"""The failure injection layer.

:class:`FaultInjector` runs a :class:`~repro.faults.events.FaultPlan`
against a :class:`~repro.faults.view.ClusterView` inside the simulation:
a plain call on the simulator's heap applies every event whose time has
come and arms the next call at the time of the first event still ahead —
one call per event time, each armed by the one before, the first one heap
entry after ``start``.  Because the simulator fires same-time entries in
the order they were made, a plan replayed against the same program yields
the identical interleaving — failures are just more (detectable) state
changes, which is exactly the framing that lets the paper's machinery
absorb them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.events import (
    FaultEvent,
    FaultPlan,
    NodeCrash,
    NodeRecovery,
    NodeSlowdown,
    ProcessorLoss,
)
from repro.faults.view import ClusterView
from repro.sim.engine import Simulator

__all__ = ["AppliedFault", "FaultInjector"]


@dataclass(frozen=True)
class AppliedFault:
    """One fault event as it actually landed in simulated time."""

    time: float
    event: FaultEvent


class FaultInjector:
    """Replays a fault plan against a cluster view, deterministically.

    >>> from repro.sim.cluster import ClusterSpec
    >>> sim = Simulator()
    >>> view = ClusterView(sim, ClusterSpec(nodes=2, procs_per_node=2))
    >>> inj = FaultInjector(sim, view, FaultPlan.crash_at(5.0, node=1))
    >>> inj.start()
    >>> _ = sim.run()
    >>> view.node_alive(1), sim.now
    (False, 5.0)
    """

    def __init__(self, sim: Simulator, view: ClusterView, plan: FaultPlan) -> None:
        plan.validate(view.base)
        self.sim = sim
        self.view = view
        self.plan = plan
        self.applied: list[AppliedFault] = []
        self._started = False

    def start(self) -> None:
        """Put the plan on the heap (call once, before ``sim.run``)."""
        if self._started:
            return
        self._started = True
        if self.plan:
            self.sim.call_at(self.sim.now, self._wake, 0)

    def crash_times(self) -> list[tuple[float, int]]:
        """(time, node) of applied node crashes, in order."""
        return [
            (a.time, a.event.node)
            for a in self.applied
            if isinstance(a.event, NodeCrash)
        ]

    def _wake(self, i: int) -> None:
        # Apply every event from ``i`` on whose time has come, then sleep
        # until the next one (at ``now + (time - now)``, not ``time``: the
        # pinned runs were recorded with that rounding).
        sim, events = self.sim, self.plan.events
        while i < len(events) and events[i].time <= sim.now:
            self._apply(events[i])
            i += 1
        if i < len(events):
            sim.call_at(sim.now + (events[i].time - sim.now), self._due, i)

    def _due(self, i: int) -> None:
        self._apply(self.plan.events[i])
        self._wake(i + 1)

    def _apply(self, ev: FaultEvent) -> None:
        if isinstance(ev, NodeCrash):
            self.view.kill_node(ev.node)
        elif isinstance(ev, ProcessorLoss):
            self.view.kill_processor(ev.proc)
        elif isinstance(ev, NodeSlowdown):
            self.view.slow_node(ev.node, ev.factor)
        elif isinstance(ev, NodeRecovery):
            self.view.recover_node(ev.node)
        else:  # pragma: no cover - plans validate their event types
            raise TypeError(f"unknown fault event {ev!r}")
        self.applied.append(AppliedFault(time=self.sim.now, event=ev))

    def __repr__(self) -> str:
        return f"FaultInjector(applied={len(self.applied)}/{len(self.plan)})"
