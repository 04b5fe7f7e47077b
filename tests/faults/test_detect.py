"""FailureDetector: heartbeat semantics and bounded detection latency."""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults import (
    ClusterView,
    FailureDetector,
    FaultInjector,
    FaultPlan,
    NodeSlowdown,
    ProcessorLoss,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator


def run_detect(
    plan: FaultPlan,
    until: float,
    cluster: ClusterSpec | None = None,
    **kwargs,
) -> tuple[FailureDetector, FaultInjector]:
    sim = Simulator()
    view = ClusterView(cluster or ClusterSpec(nodes=2, procs_per_node=2))
    inj = FaultInjector(sim, view, plan)
    det = FailureDetector(sim, view, **kwargs)
    inj.start()
    det.start()
    sim.run(until=until)
    return det, inj


class TestConfig:
    def test_timeout_must_cover_interval(self):
        sim = Simulator()
        view = ClusterView(ClusterSpec(nodes=1, procs_per_node=2))
        with pytest.raises(FaultError):
            FailureDetector(sim, view, heartbeat_interval=0.5, timeout=0.2)


class TestNodeFailure:
    def test_crash_detected_within_bound(self):
        det, inj = run_detect(
            FaultPlan.crash_at(5.0, node=1),
            until=10.0,
            heartbeat_interval=0.1,
            timeout=0.3,
        )
        found = det.detections_of("node-failure")
        assert len(found) == 1
        assert found[0].node == 1
        latency = found[0].time - 5.0
        assert 0.3 <= latency < 0.3 + 0.1 + 1e-9

    def test_detection_latencies_helper(self):
        det, inj = run_detect(
            FaultPlan.crash_at(3.0, node=0),
            until=10.0,
            heartbeat_interval=0.2,
            timeout=0.4,
        )
        lats = det.detection_latencies(inj.crash_times())
        assert len(lats) == 1
        assert 0.4 <= lats[0] < 0.6 + 1e-9

    def test_no_failure_no_detection(self):
        det, _ = run_detect(FaultPlan([]), until=5.0)
        assert det.detections == []

    def test_recovery_detected(self):
        det, _ = run_detect(
            FaultPlan.crash_at(2.0, node=1, recover_at=6.0), until=12.0
        )
        rec = det.detections_of("node-recovery")
        assert len(rec) == 1
        assert rec[0].node == 1
        assert rec[0].time >= 6.0


class TestProcFailure:
    def test_single_proc_loss_reported_as_proc(self):
        det, _ = run_detect(
            FaultPlan([ProcessorLoss(time=4.0, proc=2)]), until=10.0
        )
        assert det.detections_of("node-failure") == []
        found = det.detections_of("proc-failure")
        assert len(found) == 1
        assert found[0].proc == 2
        assert found[0].node == 1


class TestSlowdown:
    def test_slowdown_confirmed_after_debounce(self):
        det, _ = run_detect(
            FaultPlan([NodeSlowdown(time=2.0, node=0, factor=0.5)]),
            until=10.0,
            heartbeat_interval=0.1,
            timeout=0.3,
            confirm_slowdown=3,
        )
        found = det.detections_of("slowdown")
        assert len(found) == 1
        # Needs three deviating beats on the 0.1 grid after t=2.0.
        assert found[0].time >= 2.0 + 2 * 0.1 - 1e-9

    def test_slowdown_detection_disabled(self):
        det, _ = run_detect(
            FaultPlan([NodeSlowdown(time=2.0, node=0, factor=0.5)]),
            until=10.0,
            confirm_slowdown=0,
        )
        assert det.detections_of("slowdown") == []


class TestSubscription:
    def test_subscribers_called_at_detection_instant(self):
        sim = Simulator()
        view = ClusterView(ClusterSpec(nodes=2, procs_per_node=1))
        inj = FaultInjector(sim, view, FaultPlan.crash_at(1.0, node=1))
        det = FailureDetector(sim, view, heartbeat_interval=0.1, timeout=0.2)
        seen: list[tuple[float, str]] = []
        det.subscribe(lambda d: seen.append((sim.now, d.kind)))
        inj.start()
        det.start()
        sim.run(until=5.0)
        assert len(seen) == 1
        assert seen[0][0] == det.detections[0].time
