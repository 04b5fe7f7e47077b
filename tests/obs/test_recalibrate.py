"""Closing the loop: confirmed drift re-builds the table and switches.

Includes the PR's acceptance test: a tracker run whose true costs are
>= 2x the model is detected, triggers a warm re-build, and the post-switch
measured latency beats the stale schedule's.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.cache import ScheduleCache
from repro.core.optimal import OptimalScheduler
from repro.core.table import ScheduleTable
from repro.obs import CalibrationController, CostCalibrator, ScaledCost
from repro.obs.drift import DriftDetector
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.sim.network import CommCost, CommModel
from repro.state import State, StateSpace


@pytest.fixture(scope="module")
def setup():
    graph = build_tracker_graph()
    cluster = SINGLE_NODE_SMP(4)
    space = StateSpace.range("n_models", 2, 2)
    scheduler = OptimalScheduler(cluster)
    table = ScheduleTable.build(graph, space, scheduler)
    return graph, cluster, space, scheduler, table


def make_controller(setup, cache=None):
    graph, cluster, space, scheduler, table = setup
    calibrator = CostCalibrator(
        graph, State(n_models=2), cluster,
        detector=DriftDetector(threshold=0.25, confirm=3, min_samples=3,
                               alpha=1.0, cooldown=0),
    )
    return CalibrationController(
        table=table, space=space, scheduler=scheduler,
        calibrator=calibrator, cache=cache,
    )


class TestCalibrationController:
    def test_rebuild_switches_to_honest_schedule(self, setup):
        controller = make_controller(setup)
        cal = controller.calibrator
        old = controller.active
        modeled = cal.modeled_exec("T4", "serial")
        drifts = [
            s for i in range(4)
            if (s := cal.observe_exec("T4", "serial", 2.5 * modeled, time=float(i)))
        ]
        assert drifts, "synthetic 2.5x perturbation must confirm drift"

        record = controller.recalibrate(time=10.0, drifts=drifts)
        assert controller.records == [record]
        assert controller.switch_count == 1
        assert record.cause.scale_factors["T4"] == pytest.approx(2.5)
        # the honest schedule must slow down to the true bottleneck
        assert record.new_solution.period > record.old_solution.period
        assert controller.active is record.new_solution
        assert controller.active is not old
        assert record.effect.stall >= 0
        assert "recalibrated" in record.summary()

    def test_rebaseline_rearms_detector(self, setup):
        controller = make_controller(setup)
        cal = controller.calibrator
        modeled = cal.modeled_exec("T4", "serial")
        drifts = [
            s for i in range(4)
            if (s := cal.observe_exec("T4", "serial", 2.5 * modeled, time=float(i)))
        ]
        controller.recalibrate(time=10.0, drifts=drifts)
        # the calibrator now judges against the corrected model: the same
        # observed duration matches it, so no further drift fires
        corrected = cal.modeled_exec("T4", "serial")
        assert corrected == pytest.approx(2.5 * modeled)
        for i in range(6):
            assert cal.observe_exec("T4", "serial", corrected, time=20.0 + i) is None
        assert controller.switch_count == 1

    def test_process_without_drift_is_a_noop(self, setup):
        graph, cluster, space, scheduler, table = setup
        controller = make_controller(setup)
        from repro.runtime.static_exec import StaticExecutor

        result = StaticExecutor(
            graph, State(n_models=2), cluster, controller.active
        ).run(4)
        assert controller.process(result, time=result.horizon) is None
        assert controller.switch_count == 0

    def test_process_confirms_communication_drift(self, setup):
        # Transfers cost 1 ms more than the calibrator's model; every task
        # runs at its modeled cost.  The replayed transfer marks alone
        # confirm the drift.
        graph, cluster, space, scheduler, table = setup
        controller = make_controller(setup)
        controller.calibrator.comm = CommModel(cluster)
        from repro.runtime.static_exec import StaticExecutor

        slow = CommModel(cluster, intra_node=CommCost(latency=1e-3, bandwidth=100e6))
        result = StaticExecutor(
            graph, State(n_models=2), cluster, controller.active, comm=slow
        ).run(12)
        record = controller.process(result, time=result.horizon)
        assert record is not None
        drifts = record.cause.drifts
        assert drifts and {d.key[0] for d in drifts} == {"comm"}
        assert record.cause.scale_factors == {}

    def test_rebuild_uses_cache(self, setup):
        cache = ScheduleCache(tempfile.mkdtemp(prefix="repro-test-obs-cache-"))
        controller = make_controller(setup, cache=cache)
        cal = controller.calibrator
        modeled = cal.modeled_exec("T4", "serial")
        drifts = [
            s for i in range(4)
            if (s := cal.observe_exec("T4", "serial", 2.0 * modeled, time=float(i)))
        ]
        controller.recalibrate(time=5.0, drifts=drifts)
        # calibrated costs change the solve digest: a miss, then a store
        assert cache.stats.misses >= 1
        assert cache.stats.stores >= 1

    def test_recost_rebuild_misses_cache_never_serves_stale(self, setup):
        """Changed costs change the digest: the re-build must never be a
        cache hit against the stale-cost entries."""
        graph, cluster, space, scheduler, table = setup
        cache = ScheduleCache(tempfile.mkdtemp(prefix="repro-test-obs-cache-"))
        # Populate the cache with every stale-cost solve first.
        ScheduleTable.build(graph, space, scheduler, cache=cache)
        assert cache.stats.stores == len(list(space))
        hits_before = cache.stats.hits

        controller = make_controller(setup, cache=cache)
        cal = controller.calibrator
        modeled = cal.modeled_exec("T4", "serial")
        drifts = [
            s for i in range(4)
            if (s := cal.observe_exec("T4", "serial", 3.0 * modeled, time=float(i)))
        ]
        record = controller.recalibrate(time=5.0, drifts=drifts)
        # Every state re-solved fresh: zero hits against stale entries.
        assert cache.stats.hits == hits_before
        assert cache.stats.misses >= len(list(space))
        # And the served schedule reflects the re-costed model, not the
        # stale table's entry.
        stale = table.lookup(controller.calibrator.state)
        assert record.new_solution.period > stale.period
        # A second drift-free rebuild against the *same* calibrated costs
        # is the case the cache exists for: all hits.
        controller.recalibrate(time=6.0, drifts=drifts)
        assert cache.stats.hits == hits_before + len(list(space))


class TestAcceptance:
    """ISSUE acceptance: perturbed >= 2x -> detected -> re-built -> faster."""

    @pytest.fixture(scope="class")
    def demo(self):
        from repro.experiments.obs_exp import run_obs

        return run_obs(perturb=2.5, iterations=10, overhead_frames=0)

    def test_drift_detected(self, demo):
        assert demo.drift_count >= 1

    def test_rebuild_happened(self, demo):
        assert demo.rebuild_summaries

    def test_stale_schedule_saturates(self, demo):
        assert demo.stale.slips > 0
        assert demo.stale.max_latency > 2.0 * demo.stale.mean_latency / 2.0

    def test_post_switch_latency_improves(self, demo):
        assert demo.rebuilt.mean_latency < demo.stale.mean_latency
        assert demo.rebuilt.slips < demo.stale.slips

    def test_loop_closed(self, demo):
        assert demo.drift_repaired
        assert "drift detected, repaired and measurably faster: True" in demo.render()

    def test_prometheus_excerpt_present(self, demo):
        assert "repro_drift_signals_total" in demo.prometheus_excerpt


class TestScaledCostInRebuild:
    def test_perturbed_graph_name(self):
        graph = build_tracker_graph()
        from repro.obs import graph_with_costs

        true = graph_with_costs(
            graph, {"T4": ScaledCost(graph.task("T4").cost, 2.0)}, name="x@true"
        )
        assert true.name == "x@true"
