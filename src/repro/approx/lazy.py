"""LazyScheduleTable: per-state schedules solved on first look-up.

The paper pre-computes the whole table because its state set is small.
An eager build front-loads branch and bound for entries that may never be
looked up; the lazy table inverts that: an entry is solved on its first
miss — through the shared :class:`~repro.core.cache.ScheduleCache` — and
only the state asked for is solved, from the scheduler's exact request,
byte for byte the one an eager build makes for it.

The class is a :class:`~repro.core.table.ScheduleTable` that starts
empty, so every consumer — :class:`~repro.core.table.RegimeSwitcher`, the
dynamic executor's regime path, experiment drivers — takes one without
modification; a miss that used to raise ``ScheduleLookupError`` becomes
a solve.  What it adds to the base class is when entries appear and the
lock that makes that safe: ``lookup`` and the read surface are overridden
to take it.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.core.optimal import OptimalScheduler
from repro.core.schedule import ScheduleSolution
from repro.core.parallel import solve_many
from repro.core.table import ScheduleTable
from repro.graph.taskgraph import TaskGraph
from repro.state import State, StateSpace

__all__ = ["LazyScheduleTable"]


class LazyScheduleTable(ScheduleTable):
    """A schedule table that fills ``(state)`` entries on demand.

    Parameters
    ----------
    graph / space / scheduler:
        Exactly :meth:`ScheduleTable.build`'s inputs; the scheduler fixes
        the cluster.
    cache:
        Optional shared :class:`~repro.core.cache.ScheduleCache`; misses
        fetch before solving and store after
        (:func:`~repro.core.parallel.solve_many`'s ``cache=``).
    obs:
        Optional :class:`~repro.obs.Observability`; lookups feed the
        ``repro_approx_lazy_total`` counter and every solve feeds the
        gap histogram and rung counters.
    """

    def __init__(
        self,
        graph: TaskGraph,
        space: StateSpace,
        scheduler: OptimalScheduler,
        *,
        cache=None,
        obs=None,
    ) -> None:
        self.graph = graph
        self.space = space
        self.scheduler = scheduler
        self.cache = cache
        self.obs = obs
        self._solutions: dict[State, ScheduleSolution] = {}
        self._lock = threading.RLock()

    # -- the read surface, under the fill lock --------------------------------

    def lookup(self, state: State) -> ScheduleSolution:
        """The solution for ``state``, solving on first miss.

        States outside the space still raise
        :class:`~repro.errors.ScheduleLookupError` — laziness widens
        *when* entries exist, never *which* states are legal.
        """
        with self._lock:
            solution = self._solutions.get(state)
            if solution is not None:
                self._observe_lazy("hit")
                return solution
            if state not in self.space:
                raise self._miss(state)
            solution = self._solve(state)
            self._solutions[state] = solution
            self._observe_lazy("miss")
        return solution

    def __contains__(self, state: object) -> bool:
        return state in self.space

    def __len__(self) -> int:
        with self._lock:
            return len(self._solutions)

    def __iter__(self) -> Iterator[State]:
        with self._lock:
            return iter(list(self._solutions))

    def states(self) -> list[State]:
        """Solved states (insertion order) — the *materialized* table."""
        with self._lock:
            return list(self._solutions)

    def solutions(self) -> list[ScheduleSolution]:
        """Solved entries, in state insertion order."""
        with self._lock:
            return list(self._solutions.values())

    # -- filling ------------------------------------------------------------

    def _solve(self, state: State) -> ScheduleSolution:
        """One miss: the scheduler's request for ``state``, through the cache."""
        request = self.scheduler.request(self.graph, state)
        (solution,) = solve_many([request], cache=self.cache)
        self._observe_solve(solution)
        return solution

    # -- instrumentation -----------------------------------------------------

    def _observe_lazy(self, kind: str) -> None:
        if self.obs is not None:
            self.obs.on_lazy(kind)

    def _observe_solve(self, solution: ScheduleSolution) -> None:
        if self.obs is not None and solution.certificate is not None:
            cert = solution.certificate
            self.obs.on_approx_solve(cert.policy, cert.gap_bound)

    def __repr__(self) -> str:
        return f"LazyScheduleTable({len(self)}/{len(self.space)} states filled)"
