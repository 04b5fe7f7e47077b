"""One contract for every regime controller.

:class:`~repro.core.table.RegimeController` owns the transition accounting;
:class:`RegimeSwitcher`, :class:`FailoverController` and
:class:`CalibrationController` only decide *which* solution comes next.  So
whatever the key — application state, cluster shape, cost model — the same
bookkeeping must hold after every switch.  Each case below builds one
adapter and returns it with the steps that each drive one switch through
the adapter's own entry point.
"""

from __future__ import annotations

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.table import RegimeController, RegimeSwitcher, ScheduleTable
from repro.core.transition import (
    CheckpointTransition,
    DrainTransition,
    ImmediateTransition,
)
from repro.faults.detect import Detection
from repro.faults.failover import FailoverController, ShapeTable
from repro.faults.view import ClusterView
from repro.graph.builders import chain_graph
from repro.obs import CalibrationController, CostCalibrator
from repro.obs.drift import DriftDetector
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace


def state_switches(policy):
    table = ScheduleTable.build(
        chain_graph([1.0, 1.0]),
        StateSpace.range("n_models", 1, 3),
        OptimalScheduler(SINGLE_NODE_SMP(2)),
    )
    switcher = RegimeSwitcher(
        table, RegimeDetector("n_models", State(n_models=1)), policy
    )
    return switcher, [
        lambda t=float(i), n=n: switcher.observe(t, n)
        for i, n in enumerate((2, 3, 1), 1)
    ]


def shape_switches(policy):
    base = ClusterSpec(nodes=2, procs_per_node=1)
    view = ClusterView(base)
    table = ShapeTable.build(chain_graph([1.0, 1.0]), State(n_models=1), base)
    controller = FailoverController(table, view, policy)

    def crash():
        view.kill_node(0)
        return controller.on_detection(Detection(3.0, kind="node-failure", node=0))

    def recover():
        view.recover_node(0)
        return controller.on_detection(Detection(8.0, kind="node-recovery", node=0))

    return controller, (crash, recover)


def cost_switches(policy):
    graph, cluster = build_tracker_graph(), SINGLE_NODE_SMP(4)
    space = StateSpace.range("n_models", 2, 2)
    scheduler = OptimalScheduler(cluster)
    calibrator = CostCalibrator(
        graph, State(n_models=2), cluster,
        detector=DriftDetector(threshold=0.25, confirm=3, min_samples=3,
                               alpha=1.0, cooldown=0),
    )
    controller = CalibrationController(
        table=ScheduleTable.build(graph, space, scheduler), space=space,
        scheduler=scheduler, calibrator=calibrator, policy=policy,
    )

    def drift(factor, at):
        def step():
            modeled = calibrator.modeled_exec("T4", "serial")
            drifts = [
                s for i in range(4)
                if (s := calibrator.observe_exec(
                    "T4", "serial", factor * modeled, time=at + i))
            ]
            return controller.recalibrate(time=at + 5.0, drifts=drifts)
        return step

    return controller, (drift(2.5, 0.0), drift(0.4, 10.0))


@pytest.mark.parametrize(
    "policy", [DrainTransition(setup=0.5), ImmediateTransition(setup=0.1),
               CheckpointTransition(setup=0.1)],
    ids=["drain", "immediate", "checkpoint"],
)
@pytest.mark.parametrize(
    "make", [state_switches, shape_switches, cost_switches],
    ids=["RegimeSwitcher", "FailoverController", "CalibrationController"],
)
def test_switch_accounting_contract(make, policy):
    controller, steps = make(policy)
    assert isinstance(controller, RegimeController)
    assert controller.switch_count == 0 and controller.total_stall == 0.0
    assert controller.resume_at == 0.0
    previous = controller.active
    for n, step in enumerate(steps, 1):
        record = step()
        assert record is controller.records[-1]
        assert controller.switch_count == n
        assert record.old_solution is previous
        assert controller.active is record.new_solution is not previous
        assert record.effect == policy.effect(previous, record.new_solution)
        previous = record.new_solution
        effects = [r.effect for r in controller.records]
        assert controller.total_stall == pytest.approx(sum(e.stall for e in effects))
        assert controller.total_lost_iterations == sum(
            e.lost_iterations for e in effects
        )
        assert controller.total_replayed_iterations == sum(
            e.replayed_iterations for e in effects
        )
        assert controller.resume_at == max(
            r.time + r.effect.stall for r in controller.records
        )
    assert controller.switch_count >= 2
    assert [r.time for r in controller.records] == sorted(
        r.time for r in controller.records
    )
