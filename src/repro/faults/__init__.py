"""Fault tolerance: failures as detectable regime changes.

The paper's constrained-dynamism argument (§3.4) — a small set of
detectable state changes selecting among pre-computed optimal schedules —
extends directly to partial cluster failure: losing a node is a
detectable transition to a new *cluster shape*, and the same table-lookup
plus schedule-transition machinery that handles application state changes
handles it.  This package supplies the pieces:

* :mod:`~repro.faults.events` — fault plans: deterministic, validated
  scripts of node crashes, processor losses, slowdowns, and recoveries.
* :mod:`~repro.faults.view` — :class:`ClusterView`, the mutable degraded
  view of an immutable :class:`~repro.sim.cluster.ClusterSpec`.
* :mod:`~repro.faults.inject` — :class:`FaultInjector`, replaying a plan
  against the view inside the simulation, one heap call per event time.
* :mod:`~repro.faults.detect` — :class:`FailureDetector`, heartbeat
  monitoring with configurable, bounded detection latency (every heartbeat
  and the monitor a heap call that re-arms itself).
* :mod:`~repro.faults.failover` — :class:`ShapeTable` (one pre-computed
  optimal schedule per reachable degraded shape) and
  :class:`FailoverController` (detection → look-up → transition).
* :mod:`~repro.faults.runner` — :class:`FaultTolerantExecutor`, the
  integration: inject → detect → fail over → recover, with per-cause
  frame-loss accounting.  It has no placement body of its own: a fault is
  an event (``lose(frame, cause)``) on the one the static executor runs,
  :class:`~repro.runtime.static_exec.PlacementReplay`.
"""

from repro.faults.events import (
    FaultEvent,
    FaultPlan,
    NodeCrash,
    NodeRecovery,
    NodeSlowdown,
    ProcessorLoss,
)
from repro.faults.view import ClusterView
from repro.faults.inject import AppliedFault, FaultInjector
from repro.faults.detect import Detection, FailureDetector
from repro.faults.failover import (
    FailoverController,
    ShapeTable,
    reachable_shapes,
)
from repro.faults.runner import FaultRuntime, FaultTolerantExecutor

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "NodeCrash",
    "NodeRecovery",
    "NodeSlowdown",
    "ProcessorLoss",
    "ClusterView",
    "AppliedFault",
    "FaultInjector",
    "Detection",
    "FailureDetector",
    "FailoverController",
    "ShapeTable",
    "reachable_shapes",
    "FaultRuntime",
    "FaultTolerantExecutor",
]
