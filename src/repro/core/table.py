"""The keyed schedule table and the regime controller.

§3.4: "We pre-compute the optimal schedule for each of the states.  The
actions required on a state change are: perform a table look-up to
determine the new schedule for the new state; perform a transition to the
new schedule."

That sentence is implemented once here.  :class:`ScheduleTable` is the
off-line artifact: pre-computed solutions under a key.  The key is an
application state here; a degraded cluster shape
(:class:`~repro.faults.failover.ShapeTable`) and a demand-filled state
(:class:`~repro.approx.lazy.LazyScheduleTable`) are subclasses that change
only how a key is canonicalised or when an entry is solved.
:class:`RegimeController` is the on-line half: it holds the ``active``
solution, accounts every transition to a new one and says when the new one
may start (``resume_at``) — all an executor reads
(:class:`~repro.runtime.static_exec.EpochDriver` runs any of them).  What
differs between
a state change, a node failure and cost drift is only where the new
solution comes from, so :class:`RegimeSwitcher` (detector → state key),
:class:`~repro.faults.failover.FailoverController` (cluster view → shape
key) and :class:`~repro.obs.recalibrate.CalibrationController` (drift →
re-built table) are thin adapters over it.

On-line, a regime switch is two look-ups: the detector's value map gives
the confirmed state and the table gives its solution.  The controller
prices each (old, new) pair once — every policy is a pure function of the
two solutions and its own constants — and reuses the effect, filed with
both solutions so that neither id can be reused while it is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import RegimeError, ReproError, ScheduleLookupError
from repro.core.regime import RegimeDetector
from repro.core.schedule import ScheduleSolution
from repro.core.transition import DrainTransition, TransitionEffect, TransitionPolicy
from repro.graph.taskgraph import TaskGraph
from repro.state import State, StateSpace

if TYPE_CHECKING:  # serving a table needs no solver; build() is handed one
    from repro.core.optimal import OptimalScheduler

__all__ = ["ScheduleTable", "SwitchRecord", "RegimeController", "RegimeSwitcher"]

# The most (old, new) pairs a controller keeps priced: a table of n entries
# has n(n-1), and a controller that re-builds its table makes new ones.
_PRICED_PAIRS = 256


class ScheduleTable:
    """Pre-computed optimal schedules, one per key — here an application state.

    >>> from repro.core.optimal import OptimalScheduler
    >>> from repro.graph.builders import chain_graph
    >>> from repro.sim.cluster import SINGLE_NODE_SMP
    >>> from repro.state import StateSpace
    >>> table = ScheduleTable.build(
    ...     chain_graph([1.0, 1.0]),
    ...     StateSpace.range("n_models", 1, 2),
    ...     OptimalScheduler(SINGLE_NODE_SMP(2)),
    ... )
    >>> len(table)
    2
    """

    def __init__(self, solutions: dict[Any, ScheduleSolution]) -> None:
        if not solutions:
            raise RegimeError("schedule table needs at least one state")
        self._solutions = dict(solutions)

    @staticmethod
    def _key(key: Any) -> Any:
        """The canonical form ``key`` is filed under (a state is its own)."""
        return key

    def _miss(self, key: Any) -> Exception:
        """The typed error a look-up of the uncovered ``key`` raises."""
        return ScheduleLookupError(key, self._solutions)

    @classmethod
    def build(
        cls,
        graph: TaskGraph,
        space: StateSpace,
        scheduler: OptimalScheduler,
        parallel: int = 1,
        cache=None,
        verify: bool = False,
        policy=None,
    ) -> "ScheduleTable":
        """Run the off-line optimizer for every state in ``space``.

        Parameters
        ----------
        parallel:
            Only ``1``: the per-state solves run in this process (see
            :func:`~repro.core.parallel.solve_many`).  Any other value
            raises :class:`~repro.errors.RegimeError`.  The keyword stays
            only because ``benchmarks/e2e`` passes ``parallel=1``.
        cache:
            Optional :class:`~repro.core.cache.ScheduleCache`; states
            whose solve request digests to a cached entry skip the
            branch-and-bound entirely, and fresh solves are stored back.
        verify:
            Run the static analyzer (:mod:`repro.analysis` passes 1-3
            and 5: graph lint, schedule certificates, table totality, STM
            wiring, model check) over the finished table and raise
            :class:`~repro.errors.AnalysisError` on any ERROR finding.
        policy:
            Solver rung for every per-state solve, as a spec string
            (``"exact"`` | ``"bounded[:eps]"`` | ``"list"``, see
            :func:`~repro.approx.resolve_policy`).  ``None`` keeps the
            exact search.  Every non-exact entry carries a
            :class:`~repro.core.schedule.GapCertificate` stating its
            certified optimality gap.
        """
        from repro.approx import resolve_policy  # deferred: leaf package

        if parallel != 1:
            raise RegimeError(
                f"parallel={parallel!r}: the off-line solve runs in-process, "
                "so a table build takes parallel=1 only"
            )
        states = list(space)
        rung = resolve_policy(policy)
        requests = [scheduler.request(graph, state, **rung) for state in states]
        table = cls(cls._solve_keyed(states, requests, cache))
        if verify:
            table.verify(
                graph, space, scheduler.cluster, comm=scheduler.comm,
                snapshots={(r.state, r.dp_cap): r.problem for r in requests},
            )
        return table

    @classmethod
    def _solve_keyed(cls, keys, requests, cache, skip=()) -> dict:
        """The one builder path: solve ``requests``, file each under its key.

        ``cache`` hits skip the solve (see
        :func:`~repro.core.parallel.solve_many`).  A domain error of a type
        in ``skip`` leaves its key out of the table instead of aborting the
        build.
        """
        from repro.core.parallel import solve_many  # deferred: avoids import cycle

        outcomes = solve_many(requests, cache=cache, return_exceptions=bool(skip))
        solutions = {}
        for key, outcome in zip(keys, outcomes):
            if isinstance(outcome, skip):
                continue
            if isinstance(outcome, Exception):
                raise outcome
            solutions[cls._key(key)] = outcome
        return solutions

    def verify(self, graph, space, cluster, comm=None, snapshots=None) -> None:
        """Run analysis passes 1-3 and 5 over this table; raise on ERRORs.

        Checks the graph's structure, every per-state schedule certificate
        (placement legality, precedence, re-derived latency L), table
        totality over ``space``, transition resolvability and the STM
        channel wiring — then model-checks the channel configuration
        under every entry's schedule.
        Raises :class:`~repro.errors.AnalysisError` carrying the full
        :class:`~repro.analysis.findings.AnalysisReport` when any ERROR
        finding is present.  ``snapshots`` — the cost snapshots a build's
        requests already hold, by ``(state, dp_cap)`` — spare the
        certificates a second read of each state's costs (see
        :mod:`repro.analysis.schedverify`).
        """
        # Deferred import: repro.analysis imports this module's collaborators.
        from repro.analysis import lint_graph, verify_schedule_table

        report = lint_graph(graph, states=space)
        verify_schedule_table(
            self, graph, space, cluster, comm=comm, report=report, snapshots=snapshots
        )
        self._verify_entries(graph, report)

    def _verify_entries(self, graph, report) -> None:
        """The tail every keyed table's ``verify`` shares.

        The STM channel wiring, then one model check over every entry's
        schedule — one exploration covers them all: the transition system
        depends on wiring, capacities and declarations, not on per-entry
        timings.
        """
        from repro.analysis import check_model, check_stm
        from repro.errors import AnalysisError

        check_stm(graph, report=report)
        check_model(graph, solutions=self.solutions(), report=report)
        if not report.ok():
            raise AnalysisError(report)

    def lookup(self, key: Any) -> ScheduleSolution:
        """The pre-computed solution for ``key`` (canonical exact match).

        Raises :class:`~repro.errors.ScheduleLookupError` (a
        :class:`~repro.errors.RegimeError`) naming the missing state and
        the covered states on a miss.
        """
        try:
            return self._solutions[self._key(key)]
        except KeyError:
            raise self._miss(key) from None

    def __contains__(self, key: Any) -> bool:
        return self._key(key) in self._solutions

    def __len__(self) -> int:
        return len(self._solutions)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._solutions)

    def states(self) -> list[State]:
        """All covered keys, in insertion order."""
        return list(self._solutions)

    def solutions(self) -> list[ScheduleSolution]:
        """All solutions, in key insertion order."""
        return list(self._solutions.values())

    def summary(self) -> str:
        """Multi-line human-readable table."""
        return "\n".join(sol.summary() for sol in self.solutions())


@dataclass(frozen=True)
class SwitchRecord:
    """One executed schedule switch with its accounted cost.

    ``cause`` is whatever made the key change: a
    :class:`~repro.core.regime.RegimeChange`, a failure
    :class:`~repro.faults.detect.Detection`, a drift
    :class:`~repro.obs.recalibrate.Recalibration`.
    """

    time: float
    cause: Any
    effect: TransitionEffect
    old_solution: ScheduleSolution
    new_solution: ScheduleSolution

    def summary(self) -> str:
        """One-line human-readable description."""
        old, new = self.old_solution, self.new_solution
        return (
            f"[{self.time:.3f}s] {self.cause}: "
            f"II {old.period:.4g}s -> {new.period:.4g}s, "
            f"L {old.latency:.4g}s -> {new.latency:.4g}s, "
            f"stall {self.effect.stall:.4g}s"
        )


class RegimeController:
    """§3.4's on-line half: the active solution plus transition accounting.

    ``active`` is the solution to run.  :meth:`switch` is the only way it
    changes: it prices the move through the
    :class:`~repro.core.transition.TransitionPolicy`, logs a
    :class:`SwitchRecord`, adds the effect to the running totals and moves
    ``resume_at`` — the end of the transition stall, before which an
    executor starts no iteration of the new schedule (the epoch driver,
    :class:`~repro.runtime.static_exec.EpochDriver`, reads nothing else of
    a controller but ``active``, ``switch_count`` and this).  How the new
    solution was found (which table, which key) is the adapter's business,
    not the controller's.
    """

    def __init__(
        self, active: ScheduleSolution, policy: Optional[TransitionPolicy] = None
    ) -> None:
        self.active = active
        self.policy = policy or DrainTransition()
        self.records: list[SwitchRecord] = []
        # (id(old), id(new)) -> (old, new, effect): the entry holds both
        # solutions, so neither id can be reused while it is filed.
        self._priced: dict[tuple[int, int], tuple] = {}
        self.total_stall = 0.0
        self.total_lost_iterations = 0
        self.total_replayed_iterations = 0
        self.resume_at = 0.0

    def switch(self, time: float, cause: Any, new: ScheduleSolution) -> SwitchRecord:
        """Transition from ``active`` to ``new`` and account for it.

        A policy prices a move from the two solutions alone, so each pair
        is priced once and its effect reused.
        """
        old = self.active
        priced = self._priced.get((id(old), id(new)))
        if priced is None:
            if len(self._priced) >= _PRICED_PAIRS:
                self._priced.clear()
            priced = (old, new, self.policy.effect(old, new))
            self._priced[id(old), id(new)] = priced
        effect = priced[2]
        self.active = new
        record = SwitchRecord(time, cause, effect, old, new)
        self.records.append(record)
        self.total_stall += effect.stall
        self.total_lost_iterations += effect.lost_iterations
        self.total_replayed_iterations += effect.replayed_iterations
        self.resume_at = max(self.resume_at, time + effect.stall)
        return record

    @property
    def switch_count(self) -> int:
        """Number of schedule switches executed."""
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(active={self.active.state}, "
            f"switches={len(self.records)}, stall={self.total_stall:g}s)"
        )


class RegimeSwitcher(RegimeController):
    """State changes: detector → state key → table look-up → switch.

    Feed raw observations via :meth:`observe`; the switcher keeps
    ``active`` pointing at the solution for the confirmed regime and logs a
    :class:`SwitchRecord` (with stall and lost-work accounting) for every
    switch.
    """

    def __init__(
        self,
        table: ScheduleTable,
        detector: RegimeDetector,
        policy: Optional[TransitionPolicy] = None,
    ) -> None:
        if detector.current not in table:
            raise RegimeError(
                f"detector's initial state {detector.current} not in the table"
            )
        super().__init__(table.lookup(detector.current), policy)
        self.table = table
        self.detector = detector

    def observe(self, time: float, value) -> Optional[SwitchRecord]:
        """Process one raw observation; returns a record iff a switch ran.

        A confirmed state the table cannot serve raises the table's
        look-up error with the detector rolled back to the regime still
        running, so the two never disagree and the uncovered state is
        reported again when it is next confirmed.
        """
        change = self.detector.observe(time, value)
        if change is None:
            return None
        try:
            new = self.table.lookup(change.new)
        except ReproError:
            self.detector.retract(change)
            raise
        return self.switch(time, change, new)
