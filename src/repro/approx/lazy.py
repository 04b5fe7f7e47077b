"""LazyScheduleTable: demand-filled per-state schedules with pre-fill.

The paper pre-computes the whole table because its state set is small.
When the space explodes (fleet widths × states × shapes), eager builds
front-load hours of branch and bound for entries that may never be
looked up.  The lazy table inverts that: entries are solved on first
miss — through the shared :class:`~repro.core.cache.ScheduleCache`, under
any :class:`~repro.approx.policy.SolvePolicy` rung — and a small budgeted
pre-fill solves the *neighbor* states (the likely next regimes) right
after each miss, optionally on a background thread so the caller never
waits for speculation.

The class is a :class:`~repro.core.table.ScheduleTable` that starts
empty, so every consumer — :class:`~repro.core.table.RegimeSwitcher`, the
dynamic executor's regime path, experiment drivers — takes one without
modification; a miss that used to raise ``ScheduleLookupError`` becomes
a solve.  What it adds to the base class is when entries appear and the
lock that makes that safe: ``lookup`` and the read surface are overridden
to take it.  Misses warm-start from the nearest already-solved state's
re-costed schedule (:mod:`repro.approx.incremental`); the re-cost runs on
a cache miss only.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Union

from repro.approx.incremental import neighbor_states
from repro.approx.policy import SolvePolicy, resolve_policy
from repro.core.optimal import OptimalScheduler, ScheduleSolution
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
        the cluster (for fleet tenants: the virtual width-w carve).
    policy:
        Ladder rung for misses (spec string or
        :class:`~repro.approx.policy.SolvePolicy`; default exact).
    cache:
        Optional shared :class:`~repro.core.cache.ScheduleCache`; misses
        fetch before solving and store after
        (:func:`~repro.core.parallel.solve_many`'s ``cache=``).
    prefill:
        Neighbor states solved speculatively after each miss (0 = off).
    background:
        Run the pre-fill on a daemon thread instead of synchronously.
        ``drain()`` joins any in-flight speculation (tests and shutdown).
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
        policy: Union[None, str, SolvePolicy] = None,
        cache=None,
        prefill: int = 0,
        background: bool = False,
        obs=None,
    ) -> None:
        self.graph = graph
        self.space = space
        self.scheduler = scheduler
        self.policy = resolve_policy(policy)
        self.cache = cache
        self.prefill_budget = max(0, int(prefill))
        self.background = bool(background)
        self.obs = obs
        self._solutions: dict[State, ScheduleSolution] = {}
        self._lock = threading.RLock()
        self._threads: list[threading.Thread] = []

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
        if self.prefill_budget > 0:
            if self.background:
                thread = threading.Thread(
                    target=self._prefill_around, args=(state,), daemon=True
                )
                self._threads.append(thread)
                thread.start()
            else:
                self._prefill_around(state)
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
        """One miss: policy request, neighbor warm start, cached solve."""
        request = self.policy.request(self.scheduler, self.graph, state)
        warmed = self._nearest_solved(state)
        if warmed is not None:
            # An accelerator only, and not part of the cache digest:
            # ``incumbent_of`` re-costs it on a miss, a hit never does.
            request.neighbor = warmed.iteration
        (solution,) = solve_many([request], workers=1, cache=self.cache)
        self._observe_solve(solution)
        return solution

    def _nearest_solved(self, state: State) -> Optional[ScheduleSolution]:
        """The solved state closest to ``state`` in enumeration order."""
        if not self._solutions:
            return None
        target = self.space.index(state)
        best: Optional[ScheduleSolution] = None
        best_dist = len(self.space) + 1
        for other, solution in self._solutions.items():
            dist = abs(self.space.index(other) - target)
            if dist < best_dist:
                best, best_dist = solution, dist
        return best

    def _prefill_around(self, state: State) -> int:
        """Speculatively solve up to ``prefill`` unfilled neighbors."""
        filled = 0
        for neighbor in neighbor_states(self.space, state):
            if filled >= self.prefill_budget:
                break
            with self._lock:
                if neighbor in self._solutions:
                    continue
                self._solutions[neighbor] = self._solve(neighbor)
                self._observe_lazy("prefill")
            filled += 1
        return filled

    def drain(self) -> None:
        """Join any in-flight background pre-fill threads."""
        threads, self._threads = self._threads, []
        for thread in threads:
            thread.join()

    # -- instrumentation -----------------------------------------------------

    def _observe_lazy(self, kind: str) -> None:
        if self.obs is not None:
            self.obs.on_lazy(kind)

    def _observe_solve(self, solution: ScheduleSolution) -> None:
        if self.obs is not None and solution.certificate is not None:
            cert = solution.certificate
            self.obs.on_approx_solve(cert.policy, cert.gap_bound)

    def __repr__(self) -> str:
        return (
            f"LazyScheduleTable({len(self)}/{len(self.space)} states filled, "
            f"policy={self.policy!r})"
        )
