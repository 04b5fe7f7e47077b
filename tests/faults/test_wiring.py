"""Fault wiring into the executors and on-line schedulers.

The subsystem is reachable from both execution models:

* ``FaultTolerantExecutor`` runs the regime-change failover (§3.4);
  ``StaticExecutor`` takes no fault plan and runs the static path;
* ``DynamicExecutor(..., faults=...)`` binds its on-line scheduler to a
  live cluster view — threads migrate off dead processors but nothing
  fails over (the §3.2 baseline merely survives).
"""

from __future__ import annotations

import pytest

from repro.core.optimal import OptimalScheduler
from repro.errors import ProcessError
from repro.faults import ClusterView, FaultPlan
from repro.graph.builders import chain_graph
from repro.runtime.dynamic import DynamicExecutor
from repro.runtime.static_exec import StaticExecutor
from repro.sched.online import PthreadScheduler
from repro.sched.priority import TimestampPriorityScheduler
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.state import State

CLUSTER = ClusterSpec(nodes=2, procs_per_node=1)
STATE = State(n_models=1)


class TestStaticExecutorDelegation:
    def test_without_faults_static_path_unchanged(self):
        graph = chain_graph([1.0, 1.0])
        sol = OptimalScheduler(CLUSTER).solve(graph, STATE)
        res = StaticExecutor(graph, STATE, CLUSTER, sol).run(5)
        assert res.meta["slips"] == 0
        assert "recovery" not in res.meta


def run_dynamic(plan, horizon=12.0, scheduler=None, cluster=CLUSTER, max_ts=None):
    # Saturating: both task threads are permanently ready, so both
    # processors stay busy and any crash instant has a slice in flight.
    ex = DynamicExecutor(
        chain_graph([0.2, 0.2], period=0.2),
        STATE,
        cluster,
        scheduler or PthreadScheduler(quantum=0.01),
        faults=plan,
    )
    return ex.run(horizon=horizon, max_timestamps=max_ts)


# Off the 0.01 quantum grid, so the crash lands strictly inside a slice.
CRASH_T = 3.003


class TestDynamicExecutorUnderFaults:
    def test_threads_migrate_off_dead_processor(self):
        res = run_dynamic(FaultPlan.crash_at(CRASH_T, node=1), max_ts=16)
        assert res.meta["faults_applied"] == 1
        assert res.meta["dead_procs"] == [1]
        # Proc 1 was in use before the crash and never after it.
        assert any(s.proc == 1 for s in res.trace.spans)
        for s in res.trace.spans:
            if s.proc == 1:
                assert s.end <= CRASH_T + 1e-9
        # The stream keeps flowing on the survivor.
        assert res.completed
        assert max(res.completion_times.values()) > CRASH_T

    def test_slice_in_flight_is_lost_and_redone(self):
        res = run_dynamic(FaultPlan.crash_at(CRASH_T, node=1), max_ts=16)
        assert res.meta["fault_preemptions"] >= 1
        preempted_at_crash = [
            s for s in res.trace.spans
            if s.proc == 1 and s.preempted and s.end == pytest.approx(CRASH_T)
        ]
        assert preempted_at_crash

    def test_recovered_node_rejoins_grant_pool(self):
        res = run_dynamic(
            FaultPlan.crash_at(CRASH_T, node=1, recover_at=6.0), max_ts=30
        )
        post_recovery = [s for s in res.trace.spans if s.proc == 1 and s.start >= 6.0]
        assert post_recovery

    def test_no_plan_meta_is_quiet(self):
        res = run_dynamic(None, max_ts=4, horizon=6.0)
        assert res.meta["faults_applied"] == 0
        assert res.meta["fault_preemptions"] == 0
        assert res.meta["dead_procs"] == []

    def test_deterministic_under_faults(self):
        a = run_dynamic(FaultPlan.crash_at(CRASH_T, node=1), max_ts=12)
        b = run_dynamic(FaultPlan.crash_at(CRASH_T, node=1), max_ts=12)
        assert a.trace.spans == b.trace.spans
        assert a.completion_times == b.completion_times

    def test_priority_scheduler_is_fault_aware_too(self):
        res = run_dynamic(
            FaultPlan.crash_at(CRASH_T, node=1),
            scheduler=TimestampPriorityScheduler(quantum=0.01),
            max_ts=16,
        )
        for s in res.trace.spans:
            if s.proc == 1:
                assert s.end <= CRASH_T + 1e-9
        assert res.completed


@pytest.mark.parametrize(
    "make_sched",
    [lambda: PthreadScheduler(quantum=0.01), lambda: TimestampPriorityScheduler(quantum=0.01)],
    ids=["pthread", "priority"],
)
class TestSchedulerFaultProtocol:
    def setup_sched(self, make_sched):
        sim = Simulator()
        view = ClusterView(sim, CLUSTER)
        sched = make_sched()
        sched.bind(sim, CLUSTER, view=view)
        return sim, view, sched

    def grant_of(self, sim, sched, thread):
        granted = []
        ev = sched.acquire(thread)
        ev.add_callback(lambda e: granted.append(e.value))
        sim.run()
        return granted

    def test_dead_processor_never_granted(self, make_sched):
        sim, view, sched = self.setup_sched(make_sched)
        view.kill_processor(0)
        assert self.grant_of(sim, sched, "a") == [1]

    def test_release_of_dead_processor_drops_it(self, make_sched):
        sim, view, sched = self.setup_sched(make_sched)
        assert self.grant_of(sim, sched, "a") == [0]
        assert self.grant_of(sim, sched, "b") == [1]
        waiting = self.grant_of(sim, sched, "c")
        assert waiting == []  # queued: both processors held
        view.kill_processor(0)
        sched.release("a", 0)  # dead: must NOT be handed to c
        sim.run()
        assert waiting == []
        sched.release("b", 1)  # alive: c gets it
        sim.run()
        assert waiting == [1]

    def test_invalidate_drops_hold_without_regrant(self, make_sched):
        sim, view, sched = self.setup_sched(make_sched)
        assert self.grant_of(sim, sched, "a") == [0]
        view.kill_processor(0)
        sched.invalidate("a", 0)
        # The thread can queue again; only the surviving processor serves.
        assert self.grant_of(sim, sched, "a") == [1]

    def test_invalidate_wrong_processor_raises(self, make_sched):
        sim, view, sched = self.setup_sched(make_sched)
        assert self.grant_of(sim, sched, "a") == [0]
        with pytest.raises(ProcessError):
            sched.invalidate("a", 1)

    def test_recovery_wakes_waiting_threads(self, make_sched):
        sim, view, sched = self.setup_sched(make_sched)
        view.kill_node(1)
        assert self.grant_of(sim, sched, "a") == [0]
        waiting = self.grant_of(sim, sched, "b")
        assert waiting == []
        view.recover_node(1)
        sim.run()
        assert waiting == [1]
