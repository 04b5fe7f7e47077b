"""FleetManager flows: admit/queue/drain, regimes, preemption, crashes."""

from __future__ import annotations

import pytest

from repro.errors import TenantError
from repro.faults.view import ClusterView
from repro.fleet import AdmissionPolicy, FleetManager
from repro.sim.cluster import ClusterSpec
from repro.state import State

from .conftest import make_spec


def small_fleet(procs: int = 4, **kwargs) -> FleetManager:
    return FleetManager(ClusterSpec(nodes=1, procs_per_node=procs), **kwargs)


class TestAdmission:
    def test_admit_until_full_then_queue(self, spec):
        mgr = small_fleet(procs=2)
        a = mgr.admit(spec, time=0.0)
        b = mgr.admit(spec, time=1.0)
        c = mgr.admit(spec, time=2.0)
        assert (a.action, b.action, c.action) == ("admitted", "admitted", "queued")
        assert mgr.admitted_count == 2 and mgr.queued_count == 1

    def test_reject_mode_never_queues(self, spec):
        mgr = small_fleet(procs=1, admission=AdmissionPolicy(mode="reject"))
        assert mgr.admit(spec, time=0.0).action == "admitted"
        d = mgr.admit(spec, time=1.0)
        assert d.action == "rejected" and "no feasible placement" in d.reason

    def test_full_queue_rejects(self, spec):
        mgr = small_fleet(procs=1, admission=AdmissionPolicy(queue_limit=1))
        mgr.admit(spec, time=0.0)
        assert mgr.admit(spec, time=1.0).action == "queued"
        d = mgr.admit(spec, time=2.0)
        assert d.action == "rejected" and "queue full" in d.reason

    def test_admitted_tenant_has_active_schedule(self, spec):
        mgr = small_fleet()
        decision = mgr.admit(spec, time=0.0)
        tenant = mgr.tenant(decision.tenant_id)
        assert tenant.granted >= 1
        assert tenant.active is not None
        assert tenant.active.iteration.latency > 0

    def test_ids_are_unique_per_instance(self, spec):
        mgr = small_fleet()
        ids = {mgr.admit(spec, time=float(i)).tenant_id for i in range(3)}
        assert len(ids) == 3

    def test_unknown_tenant_lookup(self):
        with pytest.raises(TenantError, match="unknown tenant"):
            small_fleet().tenant("ghost")


class TestDeparture:
    def test_departure_reclaims_capacity_and_drains_queue(self, spec):
        mgr = small_fleet(procs=2)
        first = mgr.admit(spec, time=0.0)
        mgr.admit(spec, time=1.0)
        queued = mgr.admit(spec, time=2.0)
        assert queued.action == "queued"
        mgr.depart(first.tenant_id, time=3.0)
        assert mgr.admitted_count == 2 and mgr.queued_count == 0
        assert queued.tenant_id in mgr.tenants

    def test_departed_counters_survive(self, spec):
        mgr = small_fleet()
        tid = mgr.admit(spec, time=0.0).tenant_id
        gone = mgr.depart(tid, time=1.0)
        assert gone.departed_at == 1.0 and gone.granted == 0
        assert mgr.departed == [gone] and mgr.departures == 1

    def test_departing_a_queued_tenant_never_repacks(self, spec):
        mgr = small_fleet(procs=1)
        mgr.admit(spec, time=0.0)
        queued = mgr.admit(spec, time=1.0)
        repacks_before = len(mgr.repacks)
        gone = mgr.depart(queued.tenant_id, time=2.0)
        assert gone.id == queued.tenant_id
        assert len(mgr.repacks) == repacks_before

    def test_unknown_departure_raises(self, spec):
        with pytest.raises(TenantError, match="unknown tenant"):
            small_fleet().depart("ghost", time=0.0)


class TestRegimeAndPreemption:
    def test_regime_with_same_demand_is_local(self, spec):
        # width policy is state-driven; same demand -> no fleet repack.
        mgr = small_fleet()
        tid = mgr.admit(make_spec(max_width=1), time=0.0).tenant_id
        repacks = len(mgr.repacks)
        rec = mgr.on_regime(tid, State(n_models=2), time=1.0)
        assert rec is None
        assert len(mgr.repacks) == repacks
        assert mgr.tenant(tid).state == State(n_models=2)

    def test_regime_with_new_demand_repacks(self):
        mgr = small_fleet(procs=4)
        tid = mgr.admit(make_spec(max_width=2), time=0.0).tenant_id
        rec = mgr.on_regime(tid, State(n_models=2), time=1.0)
        assert rec is not None and rec.cause == "regime"
        assert mgr.tenant(tid).granted == 2

    def test_contention_demotes_to_degraded_schedule(self):
        # Two tenants demanding width 2 on 3 processors: fair share gives
        # the high-priority one 2 and demotes the other to a pre-built
        # width-1 schedule instead of killing it.
        mgr = small_fleet(procs=3)
        lo = mgr.admit(make_spec(name="lo", max_width=2, priority=0), time=0.0)
        hi = mgr.admit(make_spec(name="hi", max_width=2, priority=1), time=1.0)
        mgr.on_regime(lo.tenant_id, State(n_models=2), time=2.0)
        mgr.on_regime(hi.tenant_id, State(n_models=2), time=3.0)
        t_lo, t_hi = mgr.tenant(lo.tenant_id), mgr.tenant(hi.tenant_id)
        assert t_hi.granted == 2
        assert t_lo.granted == 1 and t_lo.demand() == 2  # degraded
        assert t_lo.demotions >= 1
        assert t_lo.active is mgr.tenant(lo.tenant_id).tables[1].lookup(t_lo.state)

    def test_departure_promotes_degraded_back(self):
        mgr = small_fleet(procs=3)
        lo = mgr.admit(make_spec(name="lo", max_width=2, priority=0), time=0.0)
        hi = mgr.admit(make_spec(name="hi", max_width=2, priority=1), time=1.0)
        mgr.on_regime(lo.tenant_id, State(n_models=2), time=2.0)
        mgr.on_regime(hi.tenant_id, State(n_models=2), time=3.0)
        mgr.depart(hi.tenant_id, time=4.0)
        t_lo = mgr.tenant(lo.tenant_id)
        assert t_lo.granted == 2 and t_lo.promotions >= 1

    def test_regime_outside_space_rejected(self, spec):
        mgr = small_fleet()
        tid = mgr.admit(spec, time=0.0).tenant_id
        with pytest.raises(TenantError, match="outside"):
            mgr.on_regime(tid, State(n_models=99), time=1.0)

    def test_transition_accounting_accumulates(self):
        mgr = small_fleet(procs=4)
        tid = mgr.admit(make_spec(max_width=2), time=0.0).tenant_id
        mgr.on_regime(tid, State(n_models=2), time=1.0)
        tenant = mgr.tenant(tid)
        assert tenant.migrations >= 1
        assert tenant.total_stall >= 0.0


class TestClusterChurn:
    def test_node_crash_triggers_repack(self, spec):
        view = ClusterView(ClusterSpec(nodes=2, procs_per_node=2))
        mgr = FleetManager(view)
        a = mgr.admit(spec, time=0.0)
        b = mgr.admit(spec, time=1.0)
        view.kill_node(1)
        assert mgr.capacity() == 2
        causes = [r.cause for r in mgr.repacks]
        assert any(c.startswith("cluster-") for c in causes)
        # Both tenants still fit (floor 1 each on the surviving node).
        assert mgr.tenant(a.tenant_id).granted >= 1
        assert mgr.tenant(b.tenant_id).granted >= 1
        assert mgr.verify().ok(strict=True)

    def test_crash_overflow_requeues_lowest_priority(self):
        view = ClusterView(ClusterSpec(nodes=2, procs_per_node=1))
        mgr = FleetManager(view)
        lo = mgr.admit(make_spec(name="lo", max_width=1, priority=0), time=0.0)
        hi = mgr.admit(make_spec(name="hi", max_width=1, priority=1), time=1.0)
        view.kill_node(0 if mgr.packing.carve(lo.tenant_id).node == 0 else 1)
        # One processor left: the low-priority tenant is back in the queue.
        assert mgr.admitted_count == 1 and mgr.queued_count == 1
        assert hi.tenant_id in mgr.tenants
        assert lo.tenant_id in mgr.queue

    def test_recovery_drains_queue(self, spec):
        view = ClusterView(ClusterSpec(nodes=2, procs_per_node=1))
        mgr = FleetManager(view)
        mgr.admit(spec, time=0.0)
        mgr.admit(spec, time=1.0)
        view.kill_node(1)
        assert mgr.queued_count == 1
        view.recover_node(1)
        assert mgr.queued_count == 0 and mgr.admitted_count == 2


class TestVerify:
    def test_live_fleet_passes_verification(self, spec):
        mgr = small_fleet(procs=4)
        for i in range(3):
            mgr.admit(spec, time=float(i))
        report = mgr.verify(strict=True)
        assert report.ok(strict=True)

    def test_repr_smoke(self, spec):
        mgr = small_fleet()
        mgr.admit(spec, time=0.0)
        assert "FleetManager(1 tenants" in repr(mgr)


class TestSolvePolicy:
    """The repro.approx ladder rung behind every tenant table build."""

    def test_bounded_rung_serves_certified_tenants(self, spec):
        mgr = small_fleet(procs=4, solve_policy="bounded:0.5")
        for i in range(3):
            mgr.admit(spec, time=float(i))
        for tenant in mgr.tenants.values():
            cert = tenant.active.certificate
            assert cert is not None and cert.policy == "bounded"
            assert cert.gap_bound <= 0.5 + 1e-9
        # F001 + S-rules (incl. S013 gap claims) must hold on every rung.
        assert mgr.verify(strict=True).ok(strict=True)

    def test_regime_change_rebuild_keeps_the_rung(self, spec):
        mgr = small_fleet(procs=4, solve_policy="bounded:0.5")
        tid = mgr.admit(spec, time=0.0).tenant_id
        mgr.on_regime(tid, State(n_models=2), time=1.0)
        cert = mgr.tenant(tid).active.certificate
        assert cert is not None and cert.policy == "bounded"
        assert mgr.verify(strict=True).ok(strict=True)
