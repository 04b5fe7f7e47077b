"""Interpolating schedule lookup — §2.1's rejected alternative, as API.

"A well known technique for handling changing application states relies on
the property that small changes in states result in small changes in
desired scheduling strategy ... However, in our case, a seemingly small
state change could alter scheduling strategy dramatically."

:class:`InterpolatingTable` implements that well-known technique for a
downstream user with a *large or unknown* state space, where the paper
concedes interpolation is the right tool: a :class:`ScheduleTable` whose
miss, instead of raising, replays the nearest covered state's schedule
structure under the requested state's costs and re-pipelines it.

The interpolation ablation (which calls
:func:`~repro.core.replay.replay_pipelined` directly) quantifies when this
loses to the exact table; :class:`ScheduleTable` remains the paper's
recommended mechanism.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RegimeError
from repro.core.optimal import ScheduleSolution
from repro.core.replay import replay_pipelined
from repro.core.table import ScheduleTable
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

__all__ = ["InterpolatingTable"]


class InterpolatingTable(ScheduleTable):
    """A schedule table whose miss falls back to the nearest covered state.

    Parameters
    ----------
    table:
        The exact per-state table whose entries this one serves (sparse
        coverage allowed).
    graph / cluster / comm:
        Needed to re-time a borrowed schedule structure under the
        requested state.
    variable:
        The state variable distance is measured on.
    """

    def __init__(
        self,
        table: ScheduleTable,
        graph: TaskGraph,
        cluster: ClusterSpec,
        comm: Optional[CommModel] = None,
        variable: str = "n_models",
    ) -> None:
        super().__init__(dict(zip(table.states(), table.solutions())))
        self.graph = graph
        self.cluster = cluster
        self.comm = comm
        self.variable = variable
        covered = [s for s in self.states() if variable in s]
        if not covered:
            raise RegimeError(f"table has no states keyed by {variable!r}")
        self._covered = sorted(covered, key=lambda s: s[variable])
        self.interpolations = 0  # diagnostic: how often we fell back

    def nearest_covered(self, state: State) -> State:
        """The covered state whose keyed variable is closest to ``state``'s."""
        try:
            x = state[self.variable]
        except KeyError:
            raise RegimeError(
                f"state {state} lacks variable {self.variable!r}"
            ) from None
        return min(self._covered, key=lambda s: (abs(s[self.variable] - x), s[self.variable]))

    def lookup(self, state: State) -> ScheduleSolution:
        """Exact solution if covered; otherwise the nearest one, replayed.

        The returned solution is re-timed and re-pipelined for ``state``
        (its latency/period are *achievable* values, not the neighbour's),
        but its structure is the neighbour's — which is precisely what
        interpolation means and where it can lose badly.
        """
        if state in self:
            return super().lookup(state)
        self.interpolations += 1
        base = super().lookup(self.nearest_covered(state))
        # One replay: the re-pipelined schedule carries the re-timed iteration.
        replayed = replay_pipelined(
            base.iteration, self.graph, state, self.cluster, self.comm
        )
        return ScheduleSolution(
            state=state,
            iteration=replayed.iteration,
            pipelined=replayed,
            alternatives=base.alternatives,
            explored=0,  # nothing was searched for this state
        )

    def __repr__(self) -> str:
        return (
            f"InterpolatingTable({len(self._covered)} covered states, "
            f"{self.interpolations} interpolations)"
        )
