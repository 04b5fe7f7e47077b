"""Integration tests for the process-parallel runtime.

Every test forks real worker processes, so graphs and frame counts stay
small — the cross-substrate semantics are covered separately by
``tests/integration/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.errors import ExecutorConfigError, ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.obs import Observability
from repro.runtime.process import KernelFault, ProcessFaultPlan, ProcessRuntime
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State

pytestmark = pytest.mark.slow


def chain_graph_live() -> TaskGraph:
    g = TaskGraph("chain")
    g.add_channel(ChannelSpec("a", item_bytes=80_000))
    g.add_channel(ChannelSpec("b", item_bytes=80_000))
    g.add_task(Task("src", cost=0.01, outputs=["a"],
                    compute=lambda s, ins: {"a": np.full((100, 100), 1.0)}))
    g.add_task(Task("dbl", cost=0.01, inputs=["a"], outputs=["b"],
                    compute=lambda s, ins: {"b": ins["a"] * 2}))
    return g


def tracker_setup(n_models: int = 2, shape: tuple[int, int] = (48, 64)):
    video = VideoSource(n_targets=n_models, height=shape[0], width=shape[1],
                        seed=11)
    live, statics = attach_kernels(
        build_tracker_graph(frame_shape=shape), video
    )
    return live, statics, State(n_models=n_models)


def dp2_schedule() -> PipelinedSchedule:
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, 0.002),
        Placement("T2", (1,), 0.002, 0.120),
        Placement("T3", (2,), 0.002, 0.080),
        Placement("T4", (2, 3), 0.122, 0.9, variant="dp2"),
        Placement("T5", (0,), 1.022, 0.03),
    ])
    return PipelinedSchedule(it, period=1.1, shift=0, n_procs=4)


class TestBasicRun:
    def test_two_node_chain(self):
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1},
        ).run(5)
        assert sorted(res.outputs["b"]) == list(range(5))
        assert all(v[0, 0] == 2.0 for v in res.outputs["b"].values())
        assert len(res.digitize_times) == 5
        assert len(res.completion_times) == 5
        for ts in res.completion_times:
            assert res.completion_times[ts] >= res.digitize_times[ts]
        assert res.channel_stats["a"]["collected"] == 5
        assert res.channel_stats["b"]["collected"] == 5

    def test_spans_cover_every_frame(self):
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1},
        ).run(4)
        by_task = {}
        for s in res.spans:
            by_task.setdefault(s.task, set()).add(s.timestamp)
        assert by_task["src"] == set(range(4))
        assert by_task["dbl"] == set(range(4))


class TestBrokerRoundTrips:
    def test_tracker_marginal_roundtrips_per_frame(self):
        """Five tasks, one step each per frame: the marginal broker cost
        of a frame is <= 5 round trips, every one of them a ``step``.

        Two run lengths cancel the fixed costs (static reads, the flush
        step per task)."""
        trips = {}
        for frames in (4, 8):
            live, statics, state = tracker_setup()
            res = StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="process", static_inputs=statics,
            ).run(frames)
            ops = res.meta["broker_ops"]
            assert set(ops) <= {"step", "done", "local_get", "local_consume"}
            assert res.meta["broker_roundtrips"] == ops["step"]
            trips[frames] = res.meta["broker_roundtrips"]
        assert (trips[8] - trips[4]) / 4 <= 5.0


class TestScheduleDriven:
    def test_tracker_dp_schedule(self):
        """A dp2 placement runs T4 through the worker's chunk pool."""
        live, statics, state = tracker_setup()
        ex = StaticExecutor(
            live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="process", static_inputs=statics,
        )
        res = ex.run(4)
        assert res.completed_count == 4
        assert res.meta["dp_plan"]["T4"] == (2, "dp2")
        locs = res.meta["outputs"]["model_locations"]
        assert all(len(locs[ts]) == 2 for ts in range(4))

    def test_dp_matches_serial_output(self):
        """Chunked T4 reproduces the serial kernel exactly (Figure 9)."""
        live, statics, state = tracker_setup()
        dp = StaticExecutor(
            live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="process", static_inputs=statics,
        ).run(3)
        live2, statics2, _ = tracker_setup()
        serial = StaticExecutor(
            live2, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="threaded", static_inputs=statics2,
        ).run(3)
        for ts in range(3):
            assert (dp.meta["outputs"]["model_locations"][ts]
                    == serial.meta["outputs"]["model_locations"][ts])


class TestObservability:
    def test_obs_buffers_merge_at_join(self):
        obs = Observability()
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, obs=obs,
        ).run(4)
        assert sorted(res.outputs["b"]) == list(range(4))
        spans = obs.tracer.spans()
        execs = [s for s in spans if s.cat == "exec"]
        assert {s.name for s in execs} == {"src", "dbl"}
        stm = [s for s in spans if s.cat == "stm"]
        assert {s.name.split(":")[0] for s in stm} >= {"put", "get", "consume"}
        snap = obs.snapshot()
        frames = snap["repro_frames_completed_total"]["series"][0]["value"]
        assert frames == 4


class TestFaults:
    def test_error_fault_absorbed_by_retry(self):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "error")],
                                kernel_retries=1)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, faults=plan,
        ).run(5)
        assert sorted(res.outputs["b"]) == list(range(5))
        assert res.kernel_retries == 1
        assert res.respawns == 0

    def test_exit_fault_respawns_and_resumes(self):
        obs = Observability()
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "exit")],
                                max_respawns=2)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, faults=plan, obs=obs,
        ).run(6)
        assert sorted(res.outputs["b"]) == list(range(6))
        assert all(v[0, 0] == 2.0 for v in res.outputs["b"].values())
        assert res.respawns == 1
        snap = obs.snapshot()
        assert snap["repro_failovers_total"]["series"][0]["value"] == 1

    def test_run_leaves_the_fault_plan_alone(self):
        """One plan drives two runs: fired exits are run-local state."""
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "exit")],
                                max_respawns=2)
        events = plan.events
        for _ in range(2):
            res = ProcessRuntime(
                chain_graph_live(), State(n_models=1), op_timeout=30.0,
                placement={"src": 0, "dbl": 1}, faults=plan,
            ).run(5)
            assert sorted(res.outputs["b"]) == list(range(5))
            assert res.respawns == 1
            assert plan.events == events

    def test_respawn_budget_exhaustion_raises(self):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 1, "exit")],
                                max_respawns=0)
        with pytest.raises(ReproError, match="respawn budget"):
            ProcessRuntime(
                chain_graph_live(), State(n_models=1), op_timeout=15.0,
                placement={"src": 0, "dbl": 1}, faults=plan,
            ).run(4)

    def test_fault_plan_validation(self):
        with pytest.raises(ReproError):
            KernelFault("t", -1)
        with pytest.raises(ReproError):
            KernelFault("t", 0, kind="meteor")
        with pytest.raises(ReproError):
            ProcessFaultPlan(kernel_retries=-1)


class TestExecutorGuards:
    def test_config_errors_are_typed_like_the_threaded_runtime(self):
        g = chain_graph_live()
        g.add_channel(ChannelSpec("cfg", static=True))
        with pytest.raises(ExecutorConfigError, match="static channel 'cfg'"):
            ProcessRuntime(g, State(n_models=1))
        with pytest.raises(ExecutorConfigError, match=">= 1"):
            ProcessRuntime(chain_graph_live(), State(n_models=1)).run(0)

    def test_unknown_runtime_rejected(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                           runtime="quantum")

    def test_live_faults_must_be_process_plan(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="threaded",
                faults=ProcessFaultPlan(),
                static_inputs=statics,
            )

    def test_contended_is_sim_only(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="process", contended=True, static_inputs=statics,
            )
