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
from repro.runtime.threaded import ThreadedRuntime
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
        assert sorted(res.meta["outputs"]["b"]) == list(range(5))
        assert all(v[0, 0] == 2.0 for v in res.meta["outputs"]["b"].values())
        assert len(res.digitize_times) == 5
        assert len(res.completion_times) == 5
        for ts in res.completion_times:
            assert res.completion_times[ts] >= res.digitize_times[ts]
        assert res.meta["channel_stats"]["a"]["collected"] == 5
        assert res.meta["channel_stats"]["b"]["collected"] == 5

    def test_spans_cover_every_frame(self):
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1},
        ).run(4)
        by_task = {}
        for s in res.trace.spans:
            by_task.setdefault(s.task, set()).add(s.timestamp)
        assert by_task["src"] == set(range(4))
        assert by_task["dbl"] == set(range(4))


TWO_NODE_SPLIT = {"T1": 0, "T2": 0, "T3": 0, "T4": 1, "T5": 1}


@pytest.fixture
def brokers(monkeypatch):
    """Every ``ChannelBroker`` a run builds, with what only it can tell:
    the channels it hosts and which of them ever carried a shm segment."""
    import repro.runtime.process as process_module

    built = []

    class SpyBroker(process_module.ChannelBroker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shm_channels: set[str] = set()
            built.append(self)

        def _unlink_all(self):
            self.shm_channels |= {name for name, bc in self.channels.items()
                                  if bc.segment_names}
            super()._unlink_all()

    monkeypatch.setattr(process_module, "ChannelBroker", SpyBroker)
    return built


def boundary_owners(graph, node_local) -> int:
    """Tasks with at least one streaming channel hosted by the broker."""
    return sum(
        any(ch not in node_local and not graph.channel(ch).static
            for ch in t.inputs + t.outputs)
        for t in graph.tasks
    )


def marginal_roundtrips(make_runtime) -> tuple[float, dict]:
    """``(round trips per extra frame, meta of the longer run)``: two run
    lengths cancel the fixed costs (static reads, the flush step)."""
    trips, meta = {}, {}
    for frames in (4, 8):
        res = make_runtime().run(frames)
        meta = res.meta
        ops = meta["broker_ops"]
        assert set(ops) <= {"step", "local_step", "done"}
        assert meta["broker_roundtrips"] == ops["step"]
        trips[frames] = meta["broker_roundtrips"]
    return (trips[8] - trips[4]) / 4, meta


class TestBrokerRoundTrips:
    """A frame crosses the broker once per task that owns a boundary
    channel — exact counts, independent of host and seed."""

    def test_tracker_marginal_roundtrips_per_frame(self, brokers):
        """Five tasks on one node: the terminal channel is collected in the
        worker too, so no frame leaves it (T4's one static read is a fixed
        cost)."""
        def make():
            live, statics, state = tracker_setup()
            return StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="process", static_inputs=statics,
            )

        marginal, meta = marginal_roundtrips(make)
        assert marginal == 0.0
        assert meta["node_local_channels"] == [
            "back_projections", "frame", "histogram", "model_locations",
            "motion_mask"]
        assert set(brokers[-1].channels) == {"color_model"}

    def test_two_node_split_crosses_once_per_boundary_owner(self, brokers):
        def make():
            live, statics, state = tracker_setup()
            return ProcessRuntime(live, state, static_inputs=statics,
                                  placement=TWO_NODE_SPLIT, op_timeout=30.0)

        marginal, meta = marginal_roundtrips(make)
        live, _, _ = tracker_setup()
        assert meta["node_local_channels"] == [
            "back_projections", "model_locations"]
        # T5 reads back_projections and puts model_locations, both on node 1
        assert boundary_owners(live, meta["node_local_channels"]) == 4
        assert marginal == 4.0
        assert set(brokers[-1].channels) == {
            "frame", "motion_mask", "histogram", "color_model"}

    def test_task_with_no_boundary_channel_never_crosses(self, brokers):
        """src -> mid on node 0, sink on node 1: ``a`` stays in node 0's
        worker and the terminal ``c`` in node 1's, so src adds nothing to
        the marginal rate."""
        def make():
            g = chain_graph_live()
            g.add_channel(ChannelSpec("c"))
            g.add_task(Task("sink", cost=0.01, inputs=["b"], outputs=["c"],
                            compute=lambda s, ins: {"c": ins["b"] + 1}))
            return ProcessRuntime(
                g, State(n_models=1), op_timeout=30.0,
                placement={"src": 0, "dbl": 0, "sink": 1})

        marginal, meta = marginal_roundtrips(make)
        assert meta["node_local_channels"] == ["a", "c"]
        assert marginal == 2.0  # dbl (puts b) and sink (gets b)
        assert set(brokers[-1].channels) == {"b"}

    @pytest.mark.parametrize("placement, frame_at_broker", [
        (None, False), (TWO_NODE_SPLIT, True)])
    def test_frame_rides_shm_only_across_nodes(self, brokers, placement,
                                               frame_at_broker):
        """The 57.6 KB frame takes the shared-memory path when — and only
        when — its channel is a boundary."""
        live, statics, state = tracker_setup(shape=(120, 160))
        res = ProcessRuntime(live, state, static_inputs=statics,
                             placement=placement, op_timeout=30.0).run(3)
        assert sorted(res.meta["outputs"]["model_locations"]) == [0, 1, 2]
        broker = brokers[-1]
        assert ("frame" in broker.channels) == frame_at_broker
        assert ("frame" in broker.shm_channels) == frame_at_broker
        if not frame_at_broker:
            assert broker.shm_channels == set()


class TestOneBrokerOp:
    """The broker serves one op, the step.  A terminal channel is collected
    on its producers' node; only a run that may respawn keeps it at the
    broker, where the parent's collector (a sink task) is served inline as
    ``local_step``."""

    @pytest.mark.parametrize("placement", [None, TWO_NODE_SPLIT],
                             ids=["one-node", "two-nodes"])
    def test_terminal_channel_is_collected_in_its_producers_worker(
            self, placement):
        live, statics, state = tracker_setup()
        frames = 5
        res = ProcessRuntime(live, state, static_inputs=statics,
                             placement=placement, op_timeout=30.0).run(frames)
        ops = res.meta["broker_ops"]
        assert set(ops) <= {"step", "done"}  # no local_step served
        assert res.meta["broker_roundtrips"] == ops["step"]
        assert "model_locations" in res.meta["node_local_channels"]
        assert sorted(res.meta["outputs"]["model_locations"]) == list(range(frames))
        assert sorted(res.completion_times) == list(range(frames))

    def test_broker_ops_are_steps_one_local_step_a_frame(self):
        """A respawn-capable plan with no events: every channel at the
        broker, drained by the parent's collector."""
        live, statics, state = tracker_setup()
        frames = 5
        res = ProcessRuntime(live, state, static_inputs=statics,
                             op_timeout=30.0,
                             faults=ProcessFaultPlan()).run(frames)
        ops = res.meta["broker_ops"]
        assert set(ops) <= {"step", "local_step", "done"}
        # one terminal channel: a step per frame (consume ts-1, get ts)
        # and the flush (consume the last frame)
        assert ops["local_step"] == frames + 1
        assert res.meta["broker_roundtrips"] == ops["step"]
        assert res.meta["node_local_channels"] == []
        assert sorted(res.meta["outputs"]["model_locations"]) == list(range(frames))
        assert sorted(res.completion_times) == list(range(frames))

    def test_missing_done_report_fails_at_the_parent(self, monkeypatch):
        """A worker that exits cleanly but never sends its report would
        leave the run short of the outputs it collected: a typed failure
        naming the node, not a short result."""
        from repro.stm.process import WorkerLink

        notify = WorkerLink.notify
        # patched before the fork, so the worker inherits it
        monkeypatch.setattr(
            WorkerLink, "notify",
            lambda link, op, payload: None if op == "done"
            else notify(link, op, payload))
        runtime = ProcessRuntime(chain_graph_live(), State(n_models=1),
                                 op_timeout=30.0)
        with pytest.raises(ReproError, match="node 0 exited without its done"):
            runtime.run(3)

    def test_big_terminal_items_return_bitwise(self):
        """The 80 KB arrays of a node-local terminal channel come home in
        the worker's report, not on the shared-memory ring, unchanged."""
        res = ProcessRuntime(chain_graph_live(), State(n_models=1),
                             op_timeout=30.0).run(4)
        ref = ThreadedRuntime(chain_graph_live(), State(n_models=1)).run(4)
        assert res.meta["node_local_channels"] == ["a", "b"]
        assert sorted(res.meta["outputs"]["b"]) == list(range(4))
        for ts, value in ref.meta["outputs"]["b"].items():
            got = res.meta["outputs"]["b"][ts]
            assert got.nbytes >= 4096
            assert (got.dtype, got.shape) == (value.dtype, value.shape)
            assert got.tobytes() == value.tobytes()


class TestScheduleDriven:
    def test_tracker_dp_schedule(self):
        """A dp2 placement runs T4 in both lanes it occupies: one span per
        processor and frame, each the same execution."""
        live, statics, state = tracker_setup()
        ex = StaticExecutor(
            live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
            runtime="process", static_inputs=statics,
        )
        res = ex.run(4)
        assert res.completed_count == 4
        t4 = [s for s in res.trace.spans if s.task == "T4"]
        assert sorted((s.timestamp, s.proc, s.variant) for s in t4) == [
            (ts, proc, "dp2") for ts in range(4) for proc in (2, 3)]
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
        # The reference is T4's serial kernel: threads run a dp2 slot's
        # chunks too, so they run no schedule here.
        serial = ThreadedRuntime(live2, state, static_inputs=statics2).run(3)
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
        assert sorted(res.meta["outputs"]["b"]) == list(range(4))
        assert {s.task for s in res.trace.spans} == {"src", "dbl"}
        assert {e.kind for e in res.trace.items} >= {"put", "get", "consume"}
        snap = obs.snapshot()
        frames = snap["repro_frames_completed_total"]["series"][0]["value"]
        assert frames == 4
        items = snap["repro_stm_items_total"]["series"]
        assert sum(s["value"] for s in items) == len(res.trace.items)


    def test_node_local_item_events_are_replayed_at_join(self):
        """One node: channel ``a`` never reaches the broker, yet its put /
        get / consume events arrive in the bundle, stamped inside the run."""
        obs = Observability()
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0, obs=obs,
        ).run(4)
        assert res.meta["node_local_channels"] == ["a", "b"]
        events = [e for e in res.trace.items if e.channel == "a"]
        kinds = [e.kind for e in events]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "put": 4, "get": 4, "consume": 4}
        assert {s.timestamp for s in events} == set(range(4))
        # worker clocks count from the broker's start, a moment before
        # the run's own t0
        assert all(0.0 < e.time <= res.meta["wall_time"] + 0.05 for e in events)
        snap = obs.snapshot()
        assert snap["repro_frames_completed_total"]["series"][0]["value"] == 4


class TestFaults:
    def test_error_fault_absorbed_by_retry(self):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "error")],
                                kernel_retries=1)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, faults=plan,
        ).run(5)
        assert sorted(res.meta["outputs"]["b"]) == list(range(5))
        assert res.meta["kernel_retries"] == 1
        assert res.meta["respawns"] == 0

    def test_exit_fault_respawns_and_resumes(self):
        obs = Observability()
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "exit")],
                                max_respawns=2)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            placement={"src": 0, "dbl": 1}, faults=plan, obs=obs,
        ).run(6)
        assert sorted(res.meta["outputs"]["b"]) == list(range(6))
        assert all(v[0, 0] == 2.0 for v in res.meta["outputs"]["b"].values())
        assert res.meta["respawns"] == 1
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
            assert sorted(res.meta["outputs"]["b"]) == list(range(5))
            assert res.meta["respawns"] == 1
            assert plan.events == events

    def test_respawn_budget_exhaustion_raises(self):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 1, "exit")],
                                max_respawns=0)
        with pytest.raises(ReproError, match="respawn budget"):
            ProcessRuntime(
                chain_graph_live(), State(n_models=1), op_timeout=15.0,
                placement={"src": 0, "dbl": 1}, faults=plan,
            ).run(4)

    def test_respawn_plan_on_one_node_takes_the_broker_hosted_path(self):
        """Recovery reads resume points from STM that outlives the worker,
        so a run that may respawn keeps every channel at the broker."""
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "exit")],
                                max_respawns=1)
        res = ProcessRuntime(
            chain_graph_live(), State(n_models=1), op_timeout=30.0,
            faults=plan,
        ).run(6)
        assert sorted(res.meta["outputs"]["b"]) == list(range(6))
        assert res.meta["respawns"] == 1
        assert res.meta["nodes"] == [0]
        assert res.meta["node_local_channels"] == []
        # one step per task per frame, not one per frame
        assert res.meta["broker_roundtrips"] >= 2 * 6

    def test_fault_plan_validation(self):
        with pytest.raises(ReproError):
            KernelFault("t", -1)
        with pytest.raises(ReproError):
            KernelFault("t", 0, kind="meteor")
        with pytest.raises(ReproError):
            ProcessFaultPlan(kernel_retries=-1)


def bounded_chain(raising: str = "") -> TaskGraph:
    """src -> dbl -> sink over capacity-1 channels: whenever one kernel
    fails, its neighbours are blocked in a put or a get.  The kernel of
    ``raising`` raises a plain exception (not a ``ReproError``: no retry
    applies) on its third frame."""
    def kernel(name, compute):
        calls = []

        def run(state, ins):
            calls.append(1)
            if name == raising and len(calls) == 3:
                raise ValueError("kernel bug")
            return compute(ins)

        return run

    g = TaskGraph("bounded-chain")
    for name in ("a", "b", "c"):
        g.add_channel(ChannelSpec(name, capacity=1))
    g.add_task(Task("src", cost=0.01, outputs=["a"], compute=kernel(
        "src", lambda ins: {"a": np.full((100, 100), 1.0)})))
    g.add_task(Task("dbl", cost=0.01, inputs=["a"], outputs=["b"],
                    compute=kernel("dbl", lambda ins: {"b": ins["a"] * 2})))
    g.add_task(Task("sink", cost=0.01, inputs=["b"], outputs=["c"],
                    compute=kernel("sink", lambda ins: {"c": ins["b"] + 1})))
    return g


ONE_NODE = {"src": 0, "dbl": 0, "sink": 0}
TWO_NODES = {"src": 0, "dbl": 0, "sink": 1}


class TestBoundedFailure:
    """A failure ends the run in a typed error well inside ``op_timeout``
    — never a hang — wherever the blocked siblings are waiting: on a
    node-local channel, or on the broker from another node."""

    OP_TIMEOUT = 30.0
    WELL_INSIDE = 10.0

    def failing_run(self, graph, placement, faults=None) -> str:
        import time

        t0 = time.monotonic()
        with pytest.raises(ReproError) as err:
            ProcessRuntime(graph, State(n_models=1), placement=placement,
                           op_timeout=self.OP_TIMEOUT, faults=faults).run(50)
        assert time.monotonic() - t0 < self.WELL_INSIDE
        return str(err.value)

    @pytest.mark.parametrize("placement", [ONE_NODE, TWO_NODES],
                             ids=["one-node", "two-nodes"])
    @pytest.mark.parametrize("task", ["dbl", "sink"])
    def test_worker_killed_mid_run(self, placement, task):
        plan = ProcessFaultPlan(events=[KernelFault(task, 2, "exit")],
                                max_respawns=0)
        message = self.failing_run(bounded_chain(), placement, plan)
        assert "respawn budget" in message

    @pytest.mark.parametrize("placement", [ONE_NODE, TWO_NODES],
                             ids=["one-node", "two-nodes"])
    @pytest.mark.parametrize("task", ["src", "dbl", "sink"])
    def test_kernel_raises_while_siblings_block(self, placement, task):
        message = self.failing_run(bounded_chain(raising=task), placement)
        assert "process runtime failed" in message

    @pytest.mark.parametrize("task", ["src", "dbl", "sink"])
    def test_kernel_raises_while_siblings_block_on_threads(self, task):
        """The same chain on threads — one node holding every channel, the
        body a process worker runs — ends in the kernel's own error."""
        import time

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="kernel bug"):
            ThreadedRuntime(bounded_chain(raising=task), State(n_models=1),
                            op_timeout=self.OP_TIMEOUT).run(50)
        assert time.monotonic() - t0 < self.WELL_INSIDE

    @pytest.mark.parametrize("placement", [ONE_NODE, TWO_NODES],
                             ids=["one-node", "two-nodes"])
    def test_injected_error_with_no_retry_left(self, placement):
        plan = ProcessFaultPlan(events=[KernelFault("dbl", 2, "error")],
                                kernel_retries=0, max_respawns=0)
        message = self.failing_run(bounded_chain(), placement, plan)
        assert "process runtime failed" in message


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

    def test_contended_is_sim_only(self):
        live, statics, state = tracker_setup()
        with pytest.raises(ReproError):
            StaticExecutor(
                live, state, SINGLE_NODE_SMP(4), dp2_schedule(),
                runtime="process", contended=True, static_inputs=statics,
            )
