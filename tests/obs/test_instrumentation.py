"""Executor instrumentation: every runtime feeds the same obs bundle."""

from __future__ import annotations

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.graph.builders import chain_graph
from repro.obs import Observability, parse_prometheus_text
from repro.runtime.dynamic import DynamicExecutor
from repro.runtime.static_exec import StaticExecutor
from repro.sched.online import PthreadScheduler
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


@pytest.fixture(scope="module")
def static_run():
    g = build_tracker_graph()
    state = State(n_models=2)
    cluster = SINGLE_NODE_SMP(4)
    sol = OptimalScheduler(cluster).solve(g, state)
    obs = Observability()
    result = StaticExecutor(g, state, cluster, sol, obs=obs).run(6)
    return obs, result


class TestStaticExecutorInstrumentation:
    def test_exec_spans_recorded(self, static_run):
        obs, result = static_run
        execs = [s for s in obs.tracer.spans() if s.cat == "exec"]
        assert execs, "no execution spans recorded"
        names = {s.name for s in execs}
        assert {"T1", "T4"} <= names
        for s in execs:
            assert s.end >= s.start
            assert s.track.startswith("proc")

    def test_stm_spans_recorded(self, static_run):
        obs, _ = static_run
        stm = [s for s in obs.tracer.spans() if s.cat == "stm"]
        kinds = {s.name.split(":")[0] for s in stm}
        assert {"put", "get", "consume"} <= kinds

    def test_prometheus_parses_and_counts_frames(self, static_run):
        obs, result = static_run
        samples = parse_prometheus_text(obs.prometheus())
        assert samples[("repro_frames_completed_total", ())] == result.completed_count
        assert samples[("repro_schedule_period_seconds", ())] == pytest.approx(
            result.meta["period"]
        )
        exec_totals = {
            labels: v
            for (name, labels), v in samples.items()
            if name == "repro_task_executions_total"
        }
        assert sum(exec_totals.values()) > 0

    def test_snapshot_agrees_with_prometheus(self, static_run):
        obs, _ = static_run
        samples = parse_prometheus_text(obs.prometheus())
        snap = obs.snapshot()
        frames = snap["repro_frames_completed_total"]["series"][0]["value"]
        assert frames == samples[("repro_frames_completed_total", ())]

    def test_frame_latency_histogram_populated(self, static_run):
        obs, result = static_run
        samples = parse_prometheus_text(obs.prometheus())
        assert samples[("repro_frame_latency_seconds_count", ())] == result.completed_count


class TestDynamicExecutorInstrumentation:
    def test_quanta_traced_frames_counted(self):
        g = chain_graph([0.01, 0.02], period=0.2)
        obs = Observability()
        result = DynamicExecutor(
            g, State(n_models=1), SINGLE_NODE_SMP(2),
            PthreadScheduler(quantum=0.01), obs=obs,
        ).run(horizon=5.0, max_timestamps=5)
        samples = parse_prometheus_text(obs.prometheus())
        assert samples[("repro_frames_completed_total", ())] == result.completed_count
        assert any(s.cat == "exec" for s in obs.tracer.spans())


class TestThreadedRuntimeInstrumentation:
    def test_live_kernels_feed_obs(self):
        from repro.apps.tracker.graph import attach_kernels
        from repro.apps.video import VideoSource
        from repro.runtime.threaded import ThreadedRuntime

        video = VideoSource(n_targets=2, height=48, width=64, seed=5)
        live, statics = attach_kernels(
            build_tracker_graph(frame_shape=(48, 64)), video
        )
        obs = Observability()
        rt = ThreadedRuntime(
            live, State(n_models=2), static_inputs=statics, op_timeout=30, obs=obs,
        )
        rt.run(4)
        spans = obs.tracer.spans()
        assert any(s.cat == "exec" for s in spans)
        assert any(s.cat == "stm" for s in spans)
        samples = parse_prometheus_text(obs.prometheus())
        exec_counts = [
            v for (name, _), v in samples.items()
            if name == "repro_task_executions_total"
        ]
        assert sum(exec_counts) >= 4  # at least one execution per frame


class TestFramesReportedOnEverySubstrate:
    @pytest.mark.slow  # the process substrate forks a worker
    def test_same_frame_count_on_sim_threaded_and_process(self):
        from repro.apps.tracker.graph import attach_kernels
        from repro.apps.video import VideoSource

        state = State(n_models=2)
        cluster = SINGLE_NODE_SMP(4)
        reported = {}
        for runtime in ("sim", "threaded", "process"):
            video = VideoSource(n_targets=2, height=48, width=64, seed=5)
            live, statics = attach_kernels(
                build_tracker_graph(frame_shape=(48, 64)), video
            )
            obs = Observability()
            StaticExecutor(
                live, state, cluster, OptimalScheduler(cluster).solve(live, state),
                runtime=runtime, static_inputs=statics, obs=obs,
            ).run(6)
            samples = parse_prometheus_text(obs.prometheus())
            reported[runtime] = (
                samples[("repro_frames_completed_total", ())],
                samples[("repro_frame_latency_seconds_count", ())],
            )
        assert reported == {r: (6, 6) for r in ("sim", "threaded", "process")}


class TestFaultHooks:
    def test_detection_and_failover_metrics(self):
        obs = Observability()
        obs.on_detection(3.0, "heartbeat", detail="node1 silent")
        obs.on_failover(3.0, 3.4, detail="rebuilt without node1")
        samples = parse_prometheus_text(obs.prometheus())
        assert samples[("repro_fault_detections_total", (("kind", "heartbeat"),))] == 1
        assert samples[("repro_failovers_total", ())] == 1
        assert samples[("repro_failover_stall_seconds_total", ())] == pytest.approx(0.4)
        cats = {s.cat for s in obs.tracer.spans()}
        assert "faults" in cats
