"""Failover: degraded cluster shapes as schedule-table keys.

§3.4 of the paper: pre-compute the optimal schedule for each state, then on
a state change "perform a table look-up to determine the new schedule ...
perform a transition to the new schedule".  A partial cluster failure *is*
such a state change — infrequent, detectable (heartbeats), and drawn from
a small set (single-node loss, single-processor loss, slowdown regimes) —
so failover adds only the key, not the machinery:

* :class:`ShapeTable` is a :class:`~repro.core.table.ScheduleTable` keyed
  by *reachable degraded shape*, canonically (losing node 0 of a
  homogeneous cluster is the same scheduling problem as losing node 3, so
  the table stays small).  It supplies the shape requests, the failover
  coverage check and shape-typed errors; building, caching, look-up and
  the shared verify tail are the base class's.
* :class:`FailoverController` is a
  :class:`~repro.core.table.RegimeController` adapter: on each confirmed
  :class:`~repro.faults.detect.Detection` it looks up the cluster view's
  current shape and, when the schedule or the processor mapping changed,
  switches through any :class:`~repro.core.transition.TransitionPolicy` —
  including :class:`~repro.core.transition.CheckpointTransition`, which
  replays the timestamps that were in flight when the node died from
  their STM items.  It adds ``mapping``; the records, the totals and
  ``resume_at`` are the base controller's.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.optimal import OptimalScheduler
from repro.core.schedule import ScheduleSolution
from repro.core.table import RegimeController, ScheduleTable, SwitchRecord
from repro.core.transition import TransitionPolicy
from repro.errors import (
    InfeasibleSchedule,
    ScheduleError,
    ShapeLookupError,
    ShapeUnschedulable,
)
from repro.faults.detect import Detection
from repro.faults.view import ClusterView
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import State

__all__ = ["reachable_shapes", "ShapeTable", "FailoverController"]


def reachable_shapes(
    base: ClusterSpec,
    max_node_failures: int = 1,
    proc_failures: bool = True,
) -> list[ClusterSpec]:
    """Enumerate the degraded shapes a fault plan can reach.

    Covers the base shape, every combination of up to ``max_node_failures``
    node losses, and (optionally) one additional single-processor loss on
    top of each of those — the "small number of states" constrained
    dynamism needs.  Shapes identical up to node reordering are emitted
    once.  The node-loss shapes come first, in the order
    ``proc_failures=False`` lists them.
    """
    return _reachable_shapes(base, max_node_failures, proc_failures)[0]


def _reachable_shapes(
    base: ClusterSpec, max_node_failures: int, proc_failures: bool
) -> tuple[list[ClusterSpec], int]:
    """:func:`reachable_shapes`, and how many of them are node-loss shapes
    (the prefix emitted before any processor loss)."""
    seen: dict[tuple, ClusterSpec] = {}

    def add(spec: ClusterSpec) -> None:
        seen.setdefault(spec.shape_key(), spec)

    def node_losses(spec: ClusterSpec, budget: int) -> None:
        add(spec)
        if budget <= 0 or spec.nodes <= 1:
            return
        for n in range(spec.nodes):
            node_losses(spec.without_node(n), budget - 1)

    node_losses(base, max_node_failures)
    node_shapes = len(seen)
    if proc_failures:
        for spec in list(seen.values()):
            if spec.total_processors > 1:
                # Losing any processor of a node leaves one shape: each
                # node's first processor stands for all of them.
                for proc in spec.processors:
                    if proc.slot == 0:
                        add(spec.without_processor(proc.index))
    return list(seen.values()), node_shapes


class ShapeTable(ScheduleTable):
    """Pre-computed optimal schedules, one per degraded cluster shape.

    The cluster-shape keying of :class:`~repro.core.table.ScheduleTable`
    (which is keyed by application state): same application state, varying
    platform.

    >>> from repro.graph.builders import chain_graph
    >>> table = ShapeTable.build(
    ...     chain_graph([1.0, 1.0]),
    ...     State(n_models=1),
    ...     ClusterSpec(nodes=2, procs_per_node=1),
    ... )
    >>> len(table) >= 2
    True
    """

    def __init__(self, solutions: dict[tuple, ScheduleSolution]) -> None:
        if not solutions:
            raise ShapeUnschedulable("shape table needs at least one shape")
        super().__init__(solutions)

    @staticmethod
    def _key(shape: ClusterSpec) -> tuple:
        return shape.shape_key()

    def _miss(self, shape: ClusterSpec) -> Exception:
        return ShapeLookupError(shape, covered=len(self._solutions))

    @classmethod
    def build(
        cls,
        graph: TaskGraph,
        state: State,
        base: ClusterSpec,
        max_node_failures: int = 1,
        proc_failures: bool = True,
        scheduler_factory: Optional[Callable[[ClusterSpec], OptimalScheduler]] = None,
        cache=None,
        verify: bool = False,
    ) -> "ShapeTable":
        """Run the Figure 6 optimizer once per reachable degraded shape.

        Shapes the application cannot run on (e.g. fewer processors than a
        mandatory data-parallel width) are skipped; looking them up later
        raises :class:`~repro.errors.ShapeUnschedulable`.

        ``cache`` is an optional :class:`~repro.core.cache.ScheduleCache`
        consulted per shape.
        ``verify`` runs the static analyzer (passes 1-3 and 5) over the
        finished table — per-shape schedule certificates plus failover
        coverage for every node-failure shape — and raises
        :class:`~repro.errors.AnalysisError` on any ERROR finding.
        Every shape is solved by its scheduler's exact request.
        """
        factory = scheduler_factory or OptimalScheduler
        shapes = reachable_shapes(base, max_node_failures, proc_failures)
        requests = [factory(spec).request(graph, state) for spec in shapes]
        # Infeasible shapes are expected (a failed node can strand a
        # mandatory data-parallel width), so those are left out of the
        # table instead of aborting the build.
        solutions = cls._solve_keyed(
            shapes, requests, cache, skip=(InfeasibleSchedule, ScheduleError),
        )
        if not solutions:
            raise ShapeUnschedulable(
                f"no reachable shape of {base!r} can run the application"
            )
        table = cls(solutions)
        if verify:
            table.verify(
                graph,
                base,
                max_node_failures=max_node_failures,
                proc_failures=proc_failures,
            )
        return table

    def verify(
        self,
        graph: TaskGraph,
        base: ClusterSpec,
        comm=None,
        max_node_failures: int = 1,
        proc_failures: bool = True,
    ) -> None:
        """Run analysis passes 1-3 and 5 over this table; raise on ERRORs.

        Checks graph structure, every per-shape schedule certificate and
        failover coverage for all node-failure shapes within
        ``max_node_failures`` — then the tail every keyed table shares
        (STM wiring, one model check of the channel configuration under
        every schedule).  Raises :class:`~repro.errors.AnalysisError` with
        the full report when any ERROR finding is present.
        """
        # Deferred import: repro.analysis imports this module.
        from repro.analysis import lint_graph, verify_shape_table

        states = {sol.state for sol in self.solutions()}
        report = lint_graph(graph, states=sorted(states, key=repr))
        verify_shape_table(
            self,
            graph,
            base,
            comm=comm,
            max_node_failures=max_node_failures,
            proc_failures=proc_failures,
            report=report,
        )
        self._verify_entries(graph, report)

    def summary(self) -> str:
        """Multi-line human-readable table."""
        lines = []
        for key, sol in self._solutions.items():
            shape = "+".join(str(p) for p, _s in key)
            lines.append(f"shape [{shape}]: {sol.summary()}")
        return "\n".join(lines)


class FailoverController(RegimeController):
    """On-line failover: detection -> shape key -> table look-up -> switch.

    The controller is runtime-agnostic: executors read ``active`` (the
    solution to run), ``resume_at`` (end of the current transition stall;
    both the base controller's) and ``mapping`` (shape index -> physical
    processor), all updated at the simulated instant a detection arrives.
    """

    def __init__(
        self,
        table: ShapeTable,
        view: ClusterView,
        policy: Optional[TransitionPolicy] = None,
    ) -> None:
        super().__init__(table.lookup(view.shape()), policy)
        self.table = table
        self.view = view
        self.mapping: dict[int, int] = view.shape_to_physical()

    def attach(self, detector) -> None:
        """Subscribe to a :class:`~repro.faults.detect.FailureDetector`."""
        detector.subscribe(self.on_detection)

    def on_detection(self, det: Detection) -> Optional[SwitchRecord]:
        """React to one confirmed detection; returns a record iff we switched."""
        new = self.table.lookup(self.view.shape())
        mapping = self.view.shape_to_physical()
        if new is self.active and mapping == self.mapping:
            return None
        record = self.switch(det.time, det, new)
        self.mapping = mapping
        return record

    def physical_procs(self, shape_procs: tuple[int, ...]) -> tuple[int, ...]:
        """Translate a placement's shape-indexed processors to physical ones."""
        return tuple(self.mapping[p] for p in shape_procs)
