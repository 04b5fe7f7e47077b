"""Executor instrumentation: every runtime writes one trace, and the
obs bundle listens to it."""

from __future__ import annotations

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.graph.builders import chain_graph
from repro.obs import CostCalibrator, Observability, parse_prometheus_text
from repro.runtime.dynamic import DynamicExecutor
from repro.runtime.static_exec import StaticExecutor
from repro.sched.online import PthreadScheduler
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.trace import Mark, TraceRecorder
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
        execs = result.trace.spans
        assert execs, "no execution spans recorded"
        names = {s.task for s in execs}
        assert {"T1", "T4"} <= names
        for s in execs:
            assert s.end >= s.start
        samples = parse_prometheus_text(obs.prometheus())
        counted = sum(
            v for (name, _), v in samples.items()
            if name == "repro_task_executions_total"
        )
        # one count per execution, not per data-parallel processor
        assert counted == len({(s.task, s.timestamp, s.start) for s in execs})

    def test_stm_spans_recorded(self, static_run):
        obs, result = static_run
        kinds = {e.kind for e in result.trace.items}
        assert {"put", "get", "consume"} <= kinds
        samples = parse_prometheus_text(obs.prometheus())
        counted = sum(
            v for (name, _), v in samples.items() if name == "repro_stm_items_total"
        )
        assert counted == len(result.trace.items)

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
        assert any(s.preempted for s in result.trace.spans)

    def test_summed_quanta_are_filed_nominal(self):
        # A frame's quanta may run on processors of both speeds; their sum
        # is no one processor's cost.
        g = chain_graph([0.03, 0.03, 0.03], period=0.03)
        cluster = ClusterSpec(nodes=2, procs_per_node=1, node_speeds=[1.0, 2.0])
        calibrator = CostCalibrator(g, State(n_models=1), cluster)
        result = DynamicExecutor(
            g, State(n_models=1), cluster, PthreadScheduler(quantum=0.01),
            obs=Observability(calibrator=calibrator),
        ).run(horizon=5.0, max_timestamps=5)
        assert {s.proc for s in result.trace.spans if s.cost is not None} == {0, 1}
        assert any(
            len({s.proc for s in result.trace.spans
                 if (s.task, s.timestamp) == (c.task, c.timestamp)}) == 2
            for c in result.trace.spans if c.cost is not None
        ), "no frame's quanta migrated"
        assert calibrator.exec_stats
        assert {nc for _t, _v, nc in calibrator.exec_stats} == {"nominal"}


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
        res = rt.run(4)
        assert res.trace.spans and res.trace.items
        samples = parse_prometheus_text(obs.prometheus())
        exec_counts = [
            v for (name, _), v in samples.items()
            if name == "repro_task_executions_total"
        ]
        assert sum(exec_counts) >= 4  # at least one execution per frame

    def test_thread_rows_are_no_processors(self):
        # A thread span's proc is its task's row; on a cluster whose first
        # processors are fast it must still be filed nominal.
        from repro.apps.tracker.graph import attach_kernels
        from repro.apps.video import VideoSource
        from repro.runtime.threaded import ThreadedRuntime

        video = VideoSource(n_targets=2, height=48, width=64, seed=5)
        live, statics = attach_kernels(
            build_tracker_graph(frame_shape=(48, 64)), video
        )
        cluster = ClusterSpec(nodes=2, procs_per_node=2, node_speeds=[2.0, 1.0])
        calibrator = CostCalibrator(live, State(n_models=2), cluster)
        res = ThreadedRuntime(
            live, State(n_models=2), static_inputs=statics, op_timeout=30,
            obs=Observability(calibrator=calibrator),
        ).run(4)
        assert {0, 1} <= {s.proc for s in res.trace.spans}
        assert calibrator.exec_stats
        assert {nc for _t, _v, nc in calibrator.exec_stats} == {"nominal"}


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
        trace = TraceRecorder()
        trace.subscribe(obs.on_record)
        trace.record_mark(Mark.detection(3.0, "heartbeat", detail="node1 silent"))
        trace.record_mark(Mark.failover(3.0, 3.4, detail="rebuilt without node1"))
        samples = parse_prometheus_text(obs.prometheus())
        assert samples[("repro_fault_detections_total", (("kind", "heartbeat"),))] == 1
        assert samples[("repro_failovers_total", ())] == 1
        assert samples[("repro_failover_stall_seconds_total", ())] == pytest.approx(0.4)
        assert {m.cat for m in trace.marks} == {"faults"}
