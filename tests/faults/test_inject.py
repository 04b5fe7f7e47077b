"""FaultInjector: deterministic replay of fault plans in the simulation."""

from __future__ import annotations

from repro.faults import ClusterView, FaultInjector, FaultPlan, NodeCrash, NodeSlowdown
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator


def make(plan: FaultPlan) -> tuple[Simulator, ClusterView, FaultInjector]:
    sim = Simulator()
    view = ClusterView(ClusterSpec(nodes=2, procs_per_node=2))
    return sim, view, FaultInjector(sim, view, plan)


class TestInjection:
    def test_events_applied_at_their_times(self):
        plan = FaultPlan(
            [NodeCrash(time=3.0, node=1), NodeSlowdown(time=1.0, node=0, factor=0.5)]
        )
        sim, view, inj = make(plan)
        inj.start()
        sim.run(until=2.0)
        assert view.slow_factors == {0: 0.5}
        assert view.node_alive(1)
        sim.run()
        assert not view.node_alive(1)
        assert [a.time for a in inj.applied] == [1.0, 3.0]

    def test_crash_and_recovery(self):
        plan = FaultPlan.crash_at(2.0, node=0, recover_at=5.0)
        sim, view, inj = make(plan)
        inj.start()
        sim.run(until=3.0)
        assert not view.node_alive(0)
        sim.run()
        assert view.node_alive(0)

    def test_crash_times(self):
        plan = FaultPlan.crash_at(2.0, node=1)
        sim, view, inj = make(plan)
        inj.start()
        sim.run()
        assert inj.crash_times() == [(2.0, 1)]

    def test_empty_plan_is_noop(self):
        sim, view, inj = make(FaultPlan([]))
        inj.start()
        sim.run()
        assert sim.now == 0.0
        assert inj.applied == []

    def test_deterministic_replay(self):
        plan = FaultPlan.poisson(
            ClusterSpec(nodes=2, procs_per_node=2),
            horizon=50.0,
            rate=0.2,
            seed=11,
            mean_downtime=3.0,
        )
        logs = []
        for _ in range(2):
            sim, view, inj = make(plan)
            log: list[tuple[float, str, int]] = []
            view.on_change(lambda kind, target: log.append((sim.now, kind, target)))
            inj.start()
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]
