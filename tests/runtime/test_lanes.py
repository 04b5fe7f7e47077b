"""Lanes: a live node runs one thread per processor of its schedule.

A lane is the placements that occupy one processor, in start order (ties
in topological order); a data-parallel one is in each of its lanes
(``test_dp_lanes.py``).  Its thread walks the frames in order and runs its
placements in turn; a terminal channel with one producer on the node is
drained in that producer's lane.  Without a schedule every task is its own
lane.  These tests pin the derivation, the
threads a node starts, that lanes neither deadlock nor change a value, a
channel count or a broker round trip, and that a threaded span names the
schedule's processor.  Every run ends inside a bounded ``op_timeout``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.apps.surveillance import build_surveillance_graph
from repro.apps.surveillance_kernels import attach_surveillance_kernels
from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.errors import ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    ChannelEnds,
    Placed,
    Slot,
    make_exchange,
    run_frames,
    schedule_slots,
)
from repro.runtime.process import KernelFault, ProcessFaultPlan, ProcessRuntime
from repro.runtime.static_exec import StaticExecutor
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State

OP_TIMEOUT = 20.0
LIVE = ("threaded", "process")


def schedule_of(rows, n_procs: int = 4, shift: int = 0) -> PipelinedSchedule:
    """``rows`` = ``(task, procs, start)``, each placement half a unit
    long: a live node reads only processors, start order, variant and
    width."""
    placements = [
        Placement(task, procs, start, 0.5,
                  variant="serial" if len(procs) == 1 else f"dp{len(procs)}")
        for task, procs, start in rows
    ]
    period = max(p.end for p in placements) + 1.0
    return PipelinedSchedule(IterationSchedule(placements), period=period,
                             shift=shift, n_procs=n_procs)


def lanes_of(slots: dict[str, Slot]) -> dict[int, list[str]]:
    lanes: dict[int, list[str]] = {}
    for task, slot in slots.items():
        lanes.setdefault(slot.procs[0], []).append(task)
    return lanes


def tracker(n_models: int = 2, shape=(48, 64)):
    video = VideoSource(n_targets=n_models, height=shape[0], width=shape[1],
                        seed=11)
    live, statics = attach_kernels(build_tracker_graph(frame_shape=shape), video)
    return live, statics, State(n_models=n_models)


def lane_threads() -> tuple[str, ...]:
    return tuple(sorted(t.name for t in threading.enumerate()
                        if t.name.startswith(("lane:", "collect:"))))


def fan_graph(capacity=None, spy: bool = False) -> TaskGraph:
    """src -> a -> {left, right} -> join -> out.  ``a`` has two consumers.

    With ``spy`` frame 0's join also reports the lane threads beside it:
    over capacity-1 channels no lane can have finished by then."""
    g = TaskGraph("fan")
    for name in ("a", "l", "r"):
        g.add_channel(ChannelSpec(name, capacity=capacity))
    g.add_channel(ChannelSpec("out"))
    g.add_task(Task("src", cost=0.01, outputs=["a"],
                    compute=lambda s, ins: {"a": np.arange(6.0)}))
    g.add_task(Task("left", cost=0.01, inputs=["a"], outputs=["l"],
                    compute=lambda s, ins: {"l": ins["a"] * 2}))
    g.add_task(Task("right", cost=0.01, inputs=["a"], outputs=["r"],
                    compute=lambda s, ins: {"r": ins["a"] + 1}))

    calls = []

    def join(s, ins):
        out = ins["l"] - ins["r"]
        calls.append(ts := len(calls))
        return {"out": (out, lane_threads() if ts == 0 else ()) if spy else out}

    g.add_task(Task("join", cost=0.01, inputs=["l", "r"], outputs=["out"],
                    compute=join))
    g.validate()
    return g


#: src, left and join on processor 0, right on processor 1
FAN_LANES = schedule_of([("src", (0,), 0), ("left", (0,), 1), ("right", (1,), 1),
                         ("join", (0,), 2)])


def run_live(substrate: str, graph, state, schedule=None, statics=None,
             frames: int = 6, **process_kwargs):
    if substrate == "threaded":
        return ThreadedRuntime(graph, state, static_inputs=statics,
                               op_timeout=OP_TIMEOUT, schedule=schedule).run(frames)
    if schedule is not None:
        process_kwargs.setdefault("cluster", SINGLE_NODE_SMP(4))
    return ProcessRuntime(graph, state, static_inputs=statics, schedule=schedule,
                          op_timeout=OP_TIMEOUT, **process_kwargs).run(frames)


def assert_bitwise_equal(a, b, where="") -> None:
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_bitwise_equal(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise_equal(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a.hex() == b.hex(), where
    else:
        assert a == b, where


class TestLaneStep:
    """A lane's step hands over one placement and fetches the next in one
    commit: one round trip a placement, never two."""

    def test_one_commit_per_placement(self):
        from tests.runtime.test_live_loop import (
            LoggingStamps,
            RecordingBatch,
            RecordingChannel,
            join_graph,
        )

        plans = build_task_plans(join_graph())
        log = []
        chans = {ch: RecordingChannel(ch, log) for ch in ("x", "y", "b", "c")}
        conns = dict.fromkeys(chans)

        def placed(name, kernel):
            plan = plans[name]
            return Placed(plan, kernel, boundary=ChannelEnds.of(plan, chans, conns, conns),
                          statics={"cfg": 7} if plan.static_inputs else {})

        lane = [placed("src", lambda ins, ts: {"x": ts, "y": -ts}),
                placed("join", lambda ins, ts: {"b": ins["x"], "c": ins["cfg"]})]
        stamped = []
        run_frames(lane, make_exchange(lane, 1.0, LoggingStamps(stamped),
                                       lambda: RecordingBatch(log)), 3)
        assert stamped == [("stamp", ts) for ts in range(3)]
        steps, step = [], []
        for entry in log:
            step.append(entry[:3])
            if entry == ("commit",):
                steps.append(step)
                step = []
        assert step == []
        assert len(steps) == 6  # two placements a frame, three frames
        assert steps[0] == [("put", "x", 0), ("put", "y", 0),   # src@0 handed over
                            ("get", "x", 0), ("get", "y", 0),   # join@0 fetched
                            ("commit",)]
        assert steps[1] == [("put", "b", 0), ("put", "c", 0),   # join@0 handed over
                            ("consume", "x", 0), ("consume", "y", 0),
                            ("commit",)]                        # src@1 reads nothing


class TestLaneDerivation:
    def test_start_order_not_declaration_order(self):
        graph, _, _ = tracker()
        slots = schedule_slots(graph, schedule_of([
            ("T1", (0,), 0), ("T2", (0,), 2), ("T3", (0,), 1),
            ("T4", (0,), 3), ("T5", (0,), 4)]))
        assert list(slots) == ["T1", "T3", "T2", "T4", "T5"]
        assert lanes_of(slots) == {0: ["T1", "T3", "T2", "T4", "T5"]}

    def test_ties_go_in_topological_order(self):
        """Declared consumer first and placed in reverse: equal starts
        still run the producer first."""
        g = TaskGraph("reversed")
        for name in ("a", "b", "c"):
            g.add_channel(ChannelSpec(name))
        g.add_task(Task("sink", cost=0.0, inputs=["b"], outputs=["c"]))
        g.add_task(Task("mid", cost=0.0, inputs=["a"], outputs=["b"]))
        g.add_task(Task("src", cost=0.0, outputs=["a"]))
        g.validate()
        slots = schedule_slots(g, schedule_of([
            ("sink", (0,), 0), ("mid", (0,), 0), ("src", (0,), 0)]))
        assert list(slots) == ["src", "mid", "sink"]

    def test_shift_does_not_move_lanes(self):
        graph, _, _ = tracker()
        rows = [("T1", (0,), 0), ("T2", (1,), 1), ("T3", (2,), 1),
                ("T4", (2, 3), 2), ("T5", (0,), 3)]
        cluster = ClusterSpec(nodes=2, procs_per_node=2)
        base = schedule_slots(graph, schedule_of(rows, shift=0), cluster)
        for shift in (1, 2, 3):
            assert schedule_slots(graph, schedule_of(rows, shift=shift), cluster) == base
        assert lanes_of(base) == {0: ["T1", "T5"], 1: ["T2"], 2: ["T3", "T4"]}

    def test_data_parallel_lane_is_its_primary(self):
        """A dp slot keeps its processors, the primary first: the node and
        the lane that gets, joins and puts are its primary's."""
        graph, _, _ = tracker()
        rows = [("T1", (0,), 0), ("T2", (1,), 1), ("T3", (0,), 1),
                ("T4", (3, 2), 2), ("T5", (0,), 3)]
        slots = schedule_slots(graph, schedule_of(rows),
                               ClusterSpec(nodes=2, procs_per_node=2))
        assert slots["T4"] == Slot(node=1, procs=(3, 2), variant="dp2")
        assert slots["T1"] == Slot(node=0, procs=(0,), variant="serial")

    def test_unplaced_task_is_refused(self):
        graph, _, _ = tracker()
        with pytest.raises(ReproError, match=r"places no tasks \['T5'\]"):
            schedule_slots(graph, schedule_of([
                ("T1", (0,), 0), ("T2", (0,), 1), ("T3", (0,), 2),
                ("T4", (0,), 3)]))


@pytest.mark.slow
class TestThreads:
    """A node starts one thread per lane; a collector whose channel has
    one producer on the node starts none."""

    @pytest.mark.parametrize("substrate", LIVE)
    def test_one_thread_per_lane(self, substrate):
        res = run_live(substrate, fan_graph(capacity=1, spy=True),
                       State(n_models=1), FAN_LANES, frames=3)
        assert res.meta["outputs"]["out"][0][1] == ("lane:0", "lane:1")

    @pytest.mark.parametrize("substrate", LIVE)
    def test_without_a_schedule_every_task_is_a_lane(self, substrate):
        res = run_live(substrate, fan_graph(capacity=1, spy=True),
                       State(n_models=1), frames=3)
        assert res.meta["outputs"]["out"][0][1] == (
            "lane:join", "lane:left", "lane:right", "lane:src")

    def test_collector_with_no_producer_on_its_node_is_a_lane(self, monkeypatch):
        """A respawn-capable run leaves the terminal channel at the broker:
        the parent's node holds no producer of it, so its collector is a
        lane of its own there."""
        import repro.runtime.process as process_module

        started = []

        class SpyNode(process_module.LiveNode):
            def start(self, *args, **kwargs):
                super().start(*args, **kwargs)
                started.append(sorted(t.name for t in self._threads))

        monkeypatch.setattr(process_module, "LiveNode", SpyNode)
        res = run_live("process", fan_graph(capacity=1, spy=True),
                       State(n_models=1), FAN_LANES, frames=3,
                       faults=ProcessFaultPlan(max_respawns=1))
        assert started == [["collect:out"]]  # the workers start in their fork
        assert res.meta["outputs"]["out"][0][1] == ("lane:0", "lane:1")


@pytest.mark.slow
class TestNoDeadlock:
    @pytest.mark.parametrize("substrate", LIVE)
    def test_capacity_one_producer_and_consumer_share_a_lane(self, substrate):
        """``a`` holds one item: src and left share lane 0, right reads
        ``a`` from lane 1, and every frame still completes."""
        frames = 40
        res = run_live(substrate, fan_graph(capacity=1), State(n_models=1),
                       FAN_LANES, frames=frames)
        assert res.completed == list(range(frames))
        for value in res.meta["outputs"]["out"].values():
            assert_bitwise_equal(value, np.arange(6.0) - 1)

    @pytest.mark.parametrize("killed", ["left", "join"])
    def test_respawn_resumes_each_task_of_a_lane_at_its_own_frame(self, killed):
        """The worker dies inside a lane that holds three tasks; the
        respawned node resumes each at its own frame and the run's outputs
        are a fault-free run's, bit for bit."""
        clean = run_live("process", fan_graph(capacity=2), State(n_models=1),
                         FAN_LANES, frames=8)
        plan = ProcessFaultPlan(events=(KernelFault(killed, 3, kind="exit"),),
                                max_respawns=1)
        res = run_live("process", fan_graph(capacity=2), State(n_models=1),
                       FAN_LANES, frames=8, faults=plan)
        assert res.meta["respawns"] == 1
        assert res.completed == list(range(8))
        assert_bitwise_equal(res.meta["outputs"], clean.meta["outputs"])


def two_lane_schedule(graph: TaskGraph, state: State) -> PipelinedSchedule:
    """A list schedule on two processors, topological order round-robin:
    every lane of a graph with three or more tasks holds several."""
    ends: dict[str, float] = {}
    free = [0.0, 0.0]
    placements = []
    for i, name in enumerate(graph.topo_order()):
        proc = i % 2
        start = max([free[proc]] + [ends[p] for p in graph.predecessors(name)])
        duration = graph.task(name).cost(state)
        placements.append(Placement(name, (proc,), start, duration))
        ends[name] = free[proc] = start + duration
    return PipelinedSchedule(IterationSchedule(placements),
                             period=max(free), shift=0, n_procs=2)


def tracker_app():
    live, statics, state = tracker()
    return live, statics, state


def surveillance_app():
    videos = [VideoSource(n_targets=1, height=40, width=56, seed=33, noise_level=4)
              for _ in range(2)]
    live = attach_surveillance_kernels(build_surveillance_graph(2), videos,
                                       zone=(0, 0, 40, 28), threshold=60)
    return live, {}, State(n_cameras=2)


APPS = {"tracker": tracker_app, "surveillance": surveillance_app}


@pytest.mark.slow
class TestLanesAgainstTasks:
    """The same graph in multi-task lanes and one task a lane: the same
    values, the same item counts, the same GC."""

    @pytest.mark.parametrize("substrate", LIVE)
    @pytest.mark.parametrize("app", list(APPS))
    def test_same_outputs_counts_and_gc(self, app, substrate):
        results = {}
        for mode in ("lanes", "tasks"):
            live, statics, state = APPS[app]()   # kernels keep state: fresh
            schedule = two_lane_schedule(live, state) if mode == "lanes" else None
            if mode == "lanes":
                assert max(map(len, lanes_of(schedule_slots(live, schedule)).values())) > 1
            results[mode] = run_live(substrate, live, state, schedule,
                                     statics or None, frames=5)
        lanes, tasks = results["lanes"], results["tasks"]
        assert lanes.completed == tasks.completed == list(range(5))
        assert_bitwise_equal(lanes.meta["outputs"], tasks.meta["outputs"])
        assert lanes.meta["channel_stats"] == tasks.meta["channel_stats"]
        assert lanes.gc_collected == tasks.gc_collected


#: node 0 runs T1 and T4 on processor 0, node 1 T2 and T3 on processor 2
#: and T5 on processor 3: every task owns a boundary channel
TWO_NODE_LANES = [("T1", (0,), 0), ("T2", (2,), 1), ("T3", (2,), 2),
                  ("T4", (0,), 3), ("T5", (3,), 4)]


def roundtrips_per_frame(make_runtime) -> tuple[float, dict]:
    """Round trips per extra frame: two run lengths cancel the fixed costs."""
    trips, meta = {}, {}
    for frames in (4, 8):
        meta = make_runtime().run(frames).meta
        trips[frames] = meta["broker_roundtrips"]
    return (trips[8] - trips[4]) / 4, meta


@pytest.mark.slow
class TestLaneRoundTrips:
    def test_two_task_lanes_with_boundary_ends_cross_as_tasks_do(self):
        """One round trip a frame per task that owns a boundary channel,
        lanes or not: each step of a lane is one placement's step."""
        cluster = ClusterSpec(nodes=2, procs_per_node=2)
        schedule = schedule_of(TWO_NODE_LANES)
        slots = schedule_slots(tracker()[0], schedule, cluster)
        assert lanes_of(slots) == {0: ["T1", "T4"], 2: ["T2", "T3"], 3: ["T5"]}
        placement = {task: slot.node for task, slot in slots.items()}

        def lanes():
            live, statics, state = tracker()
            return ProcessRuntime(live, state, static_inputs=statics,
                                  schedule=schedule, cluster=cluster,
                                  op_timeout=OP_TIMEOUT)

        def tasks():
            live, statics, state = tracker()
            return ProcessRuntime(live, state, static_inputs=statics,
                                  placement=placement, op_timeout=OP_TIMEOUT)

        by_lane, meta = roundtrips_per_frame(lanes)
        by_task, task_meta = roundtrips_per_frame(tasks)
        assert meta["node_local_channels"] == task_meta["node_local_channels"] == [
            "model_locations"]
        assert by_lane == by_task == 5.0


class TestSpansNameTheProcessor:
    """A threaded span carries its placement's processor and variant under
    a schedule — a dp2 placement one span per processor it occupies — its
    task's row and ``nominal`` without."""

    ROWS = [("T1", (0,), 0), ("T2", (1,), 1), ("T3", (2,), 1),
            ("T4", (2, 3), 2), ("T5", (0,), 3)]

    @staticmethod
    def labels(result) -> set:
        return {(s.task, s.proc, s.variant, s.node_class) for s in result.trace.spans}

    def test_scheduled_threaded_spans(self):
        live, statics, state = tracker()
        res = ThreadedRuntime(live, state, static_inputs=statics,
                              op_timeout=OP_TIMEOUT,
                              schedule=schedule_of(self.ROWS)).run(2)
        assert self.labels(res) == {
            ("T1", 0, "serial", None), ("T2", 1, "serial", None),
            ("T3", 2, "serial", None), ("T4", 2, "dp2", None),
            ("T4", 3, "dp2", None), ("T5", 0, "serial", None)}

    def test_static_executor_hands_threads_the_schedule(self):
        live, statics, state = tracker()
        res = StaticExecutor(live, state, SINGLE_NODE_SMP(4), schedule_of(self.ROWS),
                             runtime="threaded", static_inputs=statics).run(2)
        assert {(task, proc, variant) for task, proc, variant, _ in self.labels(res)} == {
            ("T1", 0, "serial"), ("T2", 1, "serial"), ("T3", 2, "serial"),
            ("T4", 2, "dp2"), ("T4", 3, "dp2"), ("T5", 0, "serial")}

    def test_unscheduled_threaded_spans_keep_their_rows(self):
        live, statics, state = tracker()
        res = ThreadedRuntime(live, state, static_inputs=statics,
                              op_timeout=OP_TIMEOUT).run(2)
        assert self.labels(res) == {(f"T{i + 1}", i, "serial", "nominal")
                                    for i in range(5)}
