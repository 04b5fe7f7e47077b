"""Multi-tenant scheduler-as-a-service (`repro.fleet`).

The paper's system schedules *one* constrained dynamic application that
owns the whole cluster.  This subsystem is the "millions of users" story:
thousands of independent kiosk instances — each a complete §2 application
with its own task graph, state machine, and pre-computed schedule table —
sharing one physical cluster.

The pieces map onto the existing machinery deliberately:

* :class:`~repro.fleet.tenant.Tenant` — one app instance; its schedule
  bank (one :class:`~repro.core.table.ScheduleTable` per virtual-cluster
  width) is the per-tenant analogue of the faults subsystem's
  :class:`~repro.faults.failover.ShapeTable`, built through the shared
  :class:`~repro.core.cache.ScheduleCache`.
* :class:`~repro.fleet.placer.FairSharePlacer` — fair-share grants plus
  first-fit-decreasing bin packing of virtual sub-clusters onto the
  shared :class:`~repro.faults.view.ClusterView`.
* :class:`~repro.fleet.admission.AdmissionQueue` — priority-FIFO
  admission control: queue or reject when the packing has no floor left.
* :class:`~repro.fleet.repack.RepackController` — tenant churn as a §3.4
  regime change, fleet-wide: re-pack, look up (pre-build) the new
  schedules, transition each moved tenant with accounted stall
  (:meth:`Tenant.switch <repro.fleet.tenant.Tenant.switch>`), demote
  over-quota tenants to degraded-width schedules instead of killing them.
* :class:`~repro.fleet.manager.FleetManager` — the service facade tying
  the above together, with an F001 packing verifier
  (:func:`repro.analysis.verify_packing`) for independent re-checks.
"""

from repro.fleet.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionQueue,
    AdmissionStats,
)
from repro.fleet.manager import FleetManager
from repro.fleet.placer import Carve, Demand, FairSharePlacer, Packing, fair_share_grants
from repro.fleet.repack import RepackController, RepackRecord
from repro.fleet.tenant import Tenant, TenantSpec, default_width_policy

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionQueue",
    "AdmissionStats",
    "FleetManager",
    "Carve",
    "Demand",
    "FairSharePlacer",
    "Packing",
    "fair_share_grants",
    "RepackController",
    "RepackRecord",
    "Tenant",
    "TenantSpec",
    "default_width_policy",
]
