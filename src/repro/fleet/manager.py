"""FleetManager: scheduler-as-a-service over one shared cluster.

The entry point of :mod:`repro.fleet`.  A manager owns

* a shared :class:`~repro.faults.view.ClusterView` (the physical truth —
  the same object the fault subsystem mutates, so node crashes drive
  re-packs exactly like tenant churn),
* the live tenant set with their per-width schedule banks,
* an :class:`~repro.fleet.admission.AdmissionQueue` for tenants the
  current packing cannot hold, and
* a :class:`~repro.fleet.repack.RepackController` that answers every
  fleet event with a new fair-share packing plus accounted migrations.

The API is event-shaped to match the rest of the repo's on-line
components: ``admit`` / ``depart`` / ``on_regime`` each take the event's
(simulated) time and return the audit record they produced.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.transition import TransitionPolicy
from repro.errors import TenantError
from repro.faults.view import ClusterView
from repro.fleet.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionQueue,
    AdmissionStats,
)
from repro.fleet.placer import Demand, FairSharePlacer, Packing
from repro.fleet.repack import RepackController, RepackRecord
from repro.fleet.tenant import Tenant, TenantSpec
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.state import State

__all__ = ["FleetManager"]


class FleetManager:
    """Admission + fair-share packing + churn-driven re-packing."""

    def __init__(
        self,
        cluster: ClusterSpec | ClusterView,
        placer: Optional[FairSharePlacer] = None,
        policy: Optional[TransitionPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        cache=None,
        solve_policy=None,
    ) -> None:
        if isinstance(cluster, ClusterView):
            self.view = cluster
        else:
            self.view = ClusterView(Simulator(), cluster)
        self.admission = admission or AdmissionPolicy()
        self.tenants: dict[str, Tenant] = {}
        self.queue = AdmissionQueue()
        self.stats = AdmissionStats()
        self.controller = RepackController(
            self.view,
            self.tenants,
            placer=placer,
            policy=policy,
            cache=cache,
            solve_policy=solve_policy,
        )
        self.cache = cache
        self.solve_policy = solve_policy
        self.departures: int = 0
        self.departed: list[Tenant] = []  # audit: counters survive departure
        self._seq = 0
        self._ids: set[str] = set()
        self._now = 0.0
        # Cluster mutations (crash/recovery via the fault injector) are
        # fleet events too: re-pack the survivors, then let any queued
        # tenant take recovered capacity.
        self.view.on_change(self._on_cluster_change)

    # -- queries ------------------------------------------------------------

    @property
    def packing(self) -> Packing:
        return self.controller.packing

    @property
    def admitted_count(self) -> int:
        return len(self.tenants)

    @property
    def queued_count(self) -> int:
        return len(self.queue)

    def capacity(self) -> int:
        return self.controller.capacity()

    def utilization(self) -> float:
        return self.packing.utilization

    def tenant(self, tenant_id: str) -> Tenant:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise TenantError(f"unknown tenant {tenant_id!r}") from None

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self.tenants.values())

    def __len__(self) -> int:
        return len(self.tenants)

    @property
    def repacks(self) -> list[RepackRecord]:
        return self.controller.records

    # -- fleet events --------------------------------------------------------

    def _new_tenant(self, spec: TenantSpec, time: float) -> Tenant:
        self._seq += 1
        tid = f"{spec.name}#{self._seq}"
        if tid in self._ids:
            raise TenantError(f"duplicate tenant id {tid}")
        self._ids.add(tid)
        return Tenant(
            id=tid, spec=spec, state=spec.initial, seq=self._seq, arrived_at=time
        )

    def admit(self, spec: TenantSpec, time: float = 0.0) -> AdmissionDecision:
        """Offer one tenant instance to the fleet.

        Admission is a trial packing: the tenant is admitted iff the
        placer can give it the one-processor floor without evicting
        anyone.  Otherwise the policy queues or rejects it.
        """
        self._now = max(self._now, time)
        tenant = self._new_tenant(spec, time)
        self.stats.offered += 1
        trial = self.controller.plan(
            extra=[
                Demand(
                    tenant_id=tenant.id,
                    want=tenant.demand(),
                    priority=tenant.priority,
                    weight=tenant.weight,
                    seq=tenant.seq,
                )
            ]
        )
        if tenant.id in trial and not trial.unplaced:
            self.tenants[tenant.id] = tenant
            self.controller.repack(time, cause="arrival")
            return self.stats.record(
                AdmissionDecision(time, tenant.id, "admitted")
            )
        if (
            self.admission.mode == "queue"
            and (
                self.admission.queue_limit is None
                or len(self.queue) < self.admission.queue_limit
            )
        ):
            self.queue.push(tenant)
            return self.stats.record(
                AdmissionDecision(
                    time, tenant.id, "queued", reason="no feasible placement"
                )
            )
        return self.stats.record(
            AdmissionDecision(
                time,
                tenant.id,
                "rejected",
                reason="no feasible placement"
                + ("" if self.admission.mode == "reject" else "; queue full"),
            )
        )

    def depart(self, tenant_id: str, time: float) -> Optional[Tenant]:
        """A tenant leaves; capacity is reclaimed and the queue drained."""
        self._now = max(self._now, time)
        queued = self.queue.remove(tenant_id)
        if queued is not None:
            queued.departed_at = time
            return queued
        tenant = self.tenants.pop(tenant_id, None)
        if tenant is None:
            raise TenantError(f"unknown tenant {tenant_id!r}")
        tenant.departed_at = time
        tenant.granted = 0
        tenant.active = None
        self.departures += 1
        self.departed.append(tenant)
        self.controller.repack(time, cause="departure")
        self._drain_queue(time)
        return tenant

    def on_regime(
        self, tenant_id: str, new_state: State, time: float
    ) -> Optional[RepackRecord]:
        """A tenant's application state changed; re-pack if demand moved.

        Returns the repack record, or ``None`` when the new state demands
        the same width (the tenant just switches its own schedule via the
        normal §3.4 table look-up — no fleet involvement needed beyond
        refreshing its active solution).
        """
        self._now = max(self._now, time)
        tenant = self.tenant(tenant_id)
        if new_state not in tenant.spec.space:
            raise TenantError(
                f"state {new_state!r} outside tenant {tenant_id}'s state space"
            )
        old_demand = tenant.demand()
        tenant.state = new_state
        if tenant.demand() == old_demand and tenant.granted > 0:
            new_sol = tenant.solution(
                cache=self.cache, solve_policy=self.solve_policy
            )
            if new_sol is not tenant.active:
                tenant.switch(new_sol, self.controller.policy)
            return None
        return self.controller.repack(time, cause="regime")

    def _drain_queue(self, time: float) -> list[str]:
        """Admit queued tenants while the floor grant fits; FIFO by priority."""
        admitted: list[str] = []
        while len(self.queue) and self.admitted_count < self.capacity():
            tenant = self.queue.pop()
            self.tenants[tenant.id] = tenant
            self.controller.repack(time, cause="queue-drain")
            admitted.append(tenant.id)
            self.stats.record(
                AdmissionDecision(time, tenant.id, "admitted", reason="from queue")
            )
        return admitted

    def _on_cluster_change(self, kind: str, target: int) -> None:
        if not self.tenants and not len(self.queue):
            return
        self.controller.repack(self._now, cause=f"cluster-{kind}")
        if kind == "recovery":
            self._drain_queue(self._now)
        else:
            # Evicted tenants (lost the floor) re-enter the queue rather
            # than being killed — highest priority drains back in first.
            for tid in self.controller.packing.unplaced:
                tenant = self.tenants.pop(tid, None)
                if tenant is not None and tid not in self.queue:
                    self.queue.push(tenant)

    # -- verification ---------------------------------------------------------

    def verify(self, strict: bool = False):
        """Run the F001 packing verifier plus per-tenant S-rule certificates.

        Returns the :class:`~repro.analysis.findings.AnalysisReport`;
        raises :class:`~repro.errors.AnalysisError` when findings gate.
        """
        # Deferred import: repro.analysis is a downstream consumer.
        from repro.analysis import verify_packing
        from repro.errors import AnalysisError

        report = verify_packing(
            self.packing,
            self.view.base,
            self.tenants,
            dead_procs=self.view.dead_procs,
        )
        if not report.ok(strict=strict):
            raise AnalysisError(report)
        return report

    def __repr__(self) -> str:
        return (
            f"FleetManager({self.admitted_count} tenants, "
            f"{self.queued_count} queued, "
            f"{self.packing.used}/{self.packing.capacity} procs, "
            f"{self.controller.repack_count} repacks)"
        )
