"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type at an API boundary.  Sub-hierarchies mirror the
package layout: simulation, task-graph construction, STM, scheduling, and
experiment harness errors are distinguishable both by type and by message.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class SimDeadlock(SimulationError):
    """The simulation's heap drained with work still blocked (a static
    replay's parked placements, named ``<task>@<iteration>``)."""

    def __init__(self, blocked: list[str] | None = None) -> None:
        self.blocked = list(blocked or [])
        detail = ", ".join(self.blocked) if self.blocked else "unknown processes"
        super().__init__(f"simulation deadlock: blocked = [{detail}]")


class ProcessError(SimulationError):
    """The simulation kernel or an on-line scheduler was used incorrectly
    (an event triggered twice, a grant released by the wrong thread, ...)."""


# ---------------------------------------------------------------------------
# Cluster model
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Invalid cluster description or processor reference."""


# ---------------------------------------------------------------------------
# Task graphs
# ---------------------------------------------------------------------------


class GraphError(ReproError):
    """Base class for task-graph construction/validation errors."""


class DuplicateNameError(GraphError):
    """A task or channel name was registered twice."""


class UnknownNameError(GraphError, KeyError):
    """A task or channel name was referenced but never declared."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class CycleError(GraphError):
    """The task graph contains a dependency cycle."""


class CostModelError(GraphError):
    """A task cost model is missing or returned an invalid value."""


# ---------------------------------------------------------------------------
# Space-Time Memory
# ---------------------------------------------------------------------------


class STMError(ReproError):
    """Base class for Space-Time Memory errors."""


class ChannelClosed(STMError):
    """Operation on a channel after it was closed for puts."""


class DuplicateTimestamp(STMError):
    """A channel already holds an item with this timestamp."""


class ItemConsumed(STMError):
    """The requested timestamp was already consumed on this connection."""


class ItemUnavailable(STMError):
    """No item satisfies the request (non-blocking get miss).

    Carries the timestamps of the neighbouring available items, mirroring
    the ``ts_range`` out-parameter of ``spd_channel_get_item``.
    """

    def __init__(self, timestamp: int | None, below: int | None, above: int | None):
        self.timestamp = timestamp
        self.below = below
        self.above = above
        super().__init__(
            f"no item for timestamp {timestamp!r}; "
            f"nearest below={below!r}, above={above!r}"
        )


class ConnectionError_(STMError):
    """Invalid use of a channel connection (detached, wrong direction...)."""


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


class ScheduleError(ReproError):
    """Base class for schedule construction/validation errors."""


class InvalidSchedule(ScheduleError):
    """A schedule violates precedence, resource, or shape constraints."""


class InfeasibleSchedule(ScheduleError):
    """No legal schedule exists for the given graph and cluster."""


class RegimeError(ScheduleError):
    """Invalid regime/state-table configuration or lookup."""


class ScheduleLookupError(RegimeError, KeyError):
    """A schedule-table look-up missed: no entry for the requested state.

    Carries the offending state and the states the table does cover, so
    on-line components (and the static analyzer's totality pass) can name
    the gap precisely instead of surfacing a bare ``KeyError``.
    """

    def __init__(self, state, available=()):
        self.state = state
        self.available = list(available)
        covered = ", ".join(map(repr, self.available)) or "nothing"
        super().__init__(
            f"no pre-computed schedule for {state!r}; table covers [{covered}]"
        )

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class ExecutorConfigError(ReproError):
    """An executor was constructed or invoked with inconsistent settings.

    Raised instead of a bare assertion for misconfigurations such as an
    unknown runtime substrate, a schedule needing more processors than the
    cluster has, or a non-positive iteration count.
    """


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


class DecompositionError(ReproError):
    """Invalid data-decomposition request (e.g. MP > number of models)."""


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------


class FaultError(ReproError):
    """Base class for fault-injection / fault-tolerance errors."""


class FaultPlanError(FaultError):
    """A fault plan is malformed (bad times, unknown targets, conflicts)."""


class ShapeUnschedulable(FaultError):
    """No pre-computed schedule covers the degraded cluster shape."""


class ShapeLookupError(ShapeUnschedulable, KeyError):
    """A shape-table look-up missed: no entry for the degraded shape.

    Carries the offending shape (a :class:`~repro.sim.cluster.ClusterSpec`)
    and the number of covered shapes, naming the gap the failover table
    left open.
    """

    def __init__(self, shape, covered: int = 0):
        self.shape = shape
        self.covered = covered
        super().__init__(
            f"no pre-computed schedule for shape {shape!r}; "
            f"table covers {covered} shapes"
        )

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


# ---------------------------------------------------------------------------
# Fleet (multi-tenant scheduling)
# ---------------------------------------------------------------------------


class FleetError(ReproError):
    """Base class for multi-tenant fleet-scheduling errors."""


class TenantError(FleetError):
    """Invalid tenant description, or an operation on an unknown tenant."""


class AdmissionError(FleetError):
    """A tenant was rejected by admission control."""


class PackingError(FleetError):
    """The placer could not produce a feasible packing."""


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """A ``verify=`` gate found error-severity findings in an artifact.

    Carries the full :class:`~repro.analysis.findings.AnalysisReport` so
    callers can inspect every finding, not just the summary message.
    """

    def __init__(self, report):
        self.report = report
        errors = [f for f in report.findings if f.severity.name == "ERROR"]
        head = "; ".join(f"{f.rule} {f.location}: {f.message}" for f in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(f"static analysis found {len(errors)} error(s): {head}{more}")
