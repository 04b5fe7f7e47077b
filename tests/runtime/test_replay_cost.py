"""What a frame costs the kernel: heap occupancy that does not grow with
the run, no process ever started, hub mutations that push nothing when
nobody waits, the Python calls a replayed frame makes, and a finished run
that reference counting frees.

The timing side of this lives in ``benchmarks/e2e`` (``sim_online``); these
are the counts behind it, which repeat exactly.
"""

from __future__ import annotations

import gc
import math
import sys
import weakref

import pytest

import repro.runtime.static_exec as static_exec
from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.core.transition import DrainTransition
from repro.errors import DuplicateTimestamp
from repro.experiments.regime import run_regime
from repro.faults import FaultPlan, FaultRuntime, FaultTolerantExecutor
from repro.graph.builders import chain_graph
from repro.obs import Observability
from repro.runtime.dispatch import build_task_plans
from repro.runtime.hub import ChannelHub, SimWorld, build_hubs
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.network import CommModel
from repro.sim.trace import TraceRecorder
from repro.state import State, StateSpace
from repro.stm.channel import STMChannel


class WatchedSimulator(Simulator):
    """Records the most heap entries ever pending, the entries made and the
    processes started.

    Both counts are taken in ``call_at``, the one way onto the heap, so they
    hold whichever loop pops the entries (``run`` fires them without calling
    ``step``).  Once the heap has drained every entry made was a step taken,
    and the most ever pending is reached right after a push."""

    last = None

    def __init__(self) -> None:
        super().__init__()
        self.peak = self.steps = self.processes = 0
        WatchedSimulator.last = self

    def call_at(self, time, fn, *args) -> None:
        super().call_at(time, fn, *args)
        self.steps += 1
        self.peak = max(self.peak, len(self._heap))

    def process(self, gen, name=""):
        self.processes += 1
        return super().process(gen, name)


class TestRunLengthIndependence:
    @pytest.fixture
    def tracker(self):
        cluster, state = SINGLE_NODE_SMP(4), State(n_models=3)
        graph = build_tracker_graph()
        return graph, state, cluster, OptimalScheduler(cluster).solve(graph, state)

    def test_pending_heap_entries_follow_frames_in_flight(self, monkeypatch, tracker):
        graph, state, cluster, solution = tracker
        monkeypatch.setattr(static_exec, "Simulator", WatchedSimulator)
        placements = len(solution.pipelined.iteration.placements)
        in_flight = math.ceil(solution.latency / solution.period) + 1
        peaks = {}
        for frames in (50, 400):
            result = StaticExecutor(graph, state, cluster, solution).run(frames)
            assert result.completed == list(range(frames))
            peaks[frames] = WatchedSimulator.last.peak
            # a launch, and a start and a finish per placement (plus the
            # hand-over when a processor is taken at the instant it frees)
            assert frames <= WatchedSimulator.last.steps <= 15 * frames
        assert 0 < peaks[400] == peaks[50] <= 2 * placements * in_flight

    def test_fault_run_holds_frames_in_flight_not_frames_run(self, monkeypatch):
        """The fault runner starts no process at all — placements, launch
        loop, injector, monitor and heartbeats are calls on the heap — and
        whatever the run length a frame costs the heap what it costs the
        static replay, on top of the heartbeat grid."""
        monkeypatch.setattr(static_exec, "Simulator", WatchedSimulator)
        cluster = ClusterSpec(2, 1)
        faults = FaultRuntime(plan=FaultPlan.crash_at(5.0, node=1, recover_at=20.0))
        peaks = {}
        for frames in (50, 300):
            result = FaultTolerantExecutor(
                chain_graph([1.0, 1.0]), State(n_models=1), cluster, faults
            ).run(frames)
            assert result.completed_count == frames - 1  # one lost to the crash
            sim = WatchedSimulator.last
            assert sim.processes == 0
            beats = (cluster.total_processors + 1) * (
                sim.now / faults.heartbeat_interval + 1
            )
            assert frames <= sim.steps <= 15 * frames + beats
            peaks[frames] = sim.peak
        assert 0 < peaks[300] == peaks[50] <= 12

    def test_state_change_run_holds_frames_in_flight_not_frames_run(
        self, monkeypatch
    ):
        """Ten state changes on the epoch driver's heap, spread over a run
        of 200 and of 2 000 frames: the most entries ever pending and the
        most frames ever in flight are the same."""
        monkeypatch.setattr(static_exec, "Simulator", WatchedSimulator)
        graph, cluster = build_tracker_graph(), SINGLE_NODE_SMP(4)
        table = ScheduleTable.build(
            graph, StateSpace.range("n_models", 1, 3), OptimalScheduler(cluster)
        )
        peaks = {}
        for frames in (200, 2000):
            switcher = RegimeSwitcher(
                table, RegimeDetector("n_models", State(n_models=1)),
                DrainTransition(setup=0.25),
            )
            driver = static_exec.EpochDriver(
                graph, State(n_models=1), cluster, CommModel.free(cluster)
            )
            for i in range(1, 11):
                t = i * frames * 0.05
                driver.at(t, switcher.observe, t, 1 + i % 3)
            driver.start(switcher, iterations=frames, on_loss=lambda ts, cause: None)
            deepest = 0
            while not driver.done:
                deepest = max(deepest, len(driver.replay.in_flight))
                assert driver.sim.step()
            result = driver.result({})
            assert result.completed == list(range(frames))
            assert switcher.switch_count == 10 == len(result.meta["epochs"]) - 1
            assert result.meta["slips"] == 0
            peaks[frames] = (WatchedSimulator.last.peak, deepest)
            assert WatchedSimulator.last.steps >= frames
        assert peaks[2000] == peaks[200] and peaks[200][0] > 0


class TestIdleNotification:
    @pytest.fixture
    def hub(self):
        sim = Simulator()
        return sim, ChannelHub(sim, STMChannel("c", capacity=2), TraceRecorder())

    def test_mutations_with_no_waiter_push_no_heap_entry(self, hub):
        sim, h = hub
        out, inp = h.stm.attach_output("p"), h.stm.attach_input("q")
        for ts in range(100):
            assert h.put(out, ts, ts)
            assert h.try_get(inp, ts) == (ts, ts)
            assert h.consume(inp, ts) == 1
        assert sim.peek() is None and sim._seq == 0
        assert h.gc_stats.collected == 100

    def test_an_event_asked_for_fires_at_the_next_mutation_only(self, hub):
        sim, h = hub
        out, inp = h.stm.attach_output("p"), h.stm.attach_input("q")
        h.put(out, 0, "x")
        waited = h.wait_change()
        assert h.wait_change() is waited and not waited.triggered
        h.consume(inp, 0)
        assert waited.triggered and len(sim._heap) == 1
        h.put(out, 1, "y")  # nobody asked again: nothing pushed
        assert len(sim._heap) == 1
        sim.run()
        assert waited.fired

    def test_try_put_refuses_at_capacity_and_the_generator_put_waits(self, hub):
        """``put`` refuses at capacity; a producer that hangs its retry on
        the next change lands the item the moment a consume frees a slot."""
        sim, h = hub
        out, inp = h.stm.attach_output("p"), h.stm.attach_input("q")
        assert h.put(out, 0, "a") and h.put(out, 1, "b")
        assert not h.put(out, 2, "c")
        assert len(h.stm) == 2 and [e.kind for e in h.trace.items] == ["put", "put"]
        landed = []

        def producer(_changed=None):
            if h.put(out, 2, "c"):
                landed.append(sim.now)
            else:
                h.wait_change().add_callback(producer)

        sim.call_at(0.0, producer)
        sim.call_at(4.0, h.consume, inp, 0)
        sim.run()
        assert landed == [4.0] and h.stm.timestamps() == [1, 2]


class TestTryEmit:
    def test_stops_at_the_full_channel_and_resumes_from_it(self):
        graph = chain_graph([1.0, 1.0])
        graph.channel("c0").capacity = 1
        sim, trace = Simulator(), TraceRecorder()
        world = SimWorld(
            graph, State(n_models=1), SINGLE_NODE_SMP(2), sim, trace,
            build_hubs(sim, graph, trace), build_task_plans(graph),
        )
        assert world.try_emit("t0", 0) is None
        at, hub = world.try_emit("t0", 1)
        assert (at, hub) == (0, world.hubs["c0"])
        world.retire("t1", 0, 2.0)  # t1 consumes frame 0: room again
        assert world.try_emit("t0", 1, at) is None
        assert hub.stm.timestamps() == [1]

    def test_a_second_attempt_skips_what_stm_still_holds_a_first_never_does(self):
        graph = chain_graph([1.0, 1.0])
        sim, trace = Simulator(), TraceRecorder()
        world = SimWorld(
            graph, State(n_models=1), SINGLE_NODE_SMP(2), sim, trace,
            build_hubs(sim, graph, trace), build_task_plans(graph),
        )
        assert world.try_emit("t0", 0) is None
        with pytest.raises(DuplicateTimestamp):
            world.try_emit("t0", 0)
        assert world.try_emit("t0", 0, second=True) is None
        world.retire("t1", 0, 2.0)  # consumed and collected: a replay puts anew
        assert world.try_emit("t0", 0, second=True) is None
        assert [e.kind for e in trace.items] == ["put", "consume", "put"]


def tracker_replay():
    cluster, state = SINGLE_NODE_SMP(4), State(n_models=3)
    graph = build_tracker_graph()
    solution = OptimalScheduler(cluster).solve(graph, state)
    return lambda frames: StaticExecutor(graph, state, cluster, solution).run(frames)


def python_calls(fn) -> int:
    """Python-level calls ``fn()`` makes: the profiler's ``"call"`` events,
    generator resumptions included."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def calls_per_frame(replay) -> float:
    """Python-level calls a frame of ``replay``, between a 100- and a
    400-frame run so that a run's fixed cost drops out."""
    replay(10)  # lazy imports and first-call set-up out of the count
    return (python_calls(lambda: replay(400)) - python_calls(lambda: replay(100))) / 300


class TestCallsPerFrame:
    def test_a_replayed_tracker_frame_makes_at_most_100_python_calls(self):
        """The host-independent cost of a frame: Python-level calls per
        frame of a tracker replay.  The record path, the engine
        loop and the collector's early exit brought it from 240 to 124,
        asking ``is_full`` once a put to 119; spans appended through the
        trace's ``append_span`` after one check an execution, capacity
        tested inline, ``Item`` and ``FlatPlacement`` rows filled without
        an ``__init__`` and the instantiate loop without a comprehension
        to 95."""
        assert calls_per_frame(tracker_replay()) <= 100

    def test_a_segment_of_a_graph_that_ran_before_derives_nothing_from_it(self):
        """A run's fixed cost — ``run(1)`` less one frame — once the graph
        has run: 285 calls, 501 while every run compiled its task plans,
        edge labels and terminal, source and sink lists again (they are
        kept on the graph now) and priced its transfers on a free model."""
        replay = tracker_replay()
        per_frame = calls_per_frame(replay)
        assert python_calls(lambda: replay(1)) - per_frame <= 313  # 285 + 10 %


def regime_run():
    return run_regime(horizon=600.0).executed


def fault_run():
    return FaultTolerantExecutor(
        chain_graph([1.0, 1.0]), State(n_models=1), ClusterSpec(2, 1),
        FaultRuntime(plan=FaultPlan.crash_at(5.0, node=1, recover_at=20.0)),
    ).run(50)


def contended_run(obs=None):
    graph, state, cluster = build_tracker_graph(), State(n_models=3), ClusterSpec(2, 2)
    solution = OptimalScheduler(cluster).solve(graph, state)
    return StaticExecutor(
        graph, state, cluster, solution, comm=CommModel(cluster), contended=True,
        obs=obs,
    ).run(50)


def contended_observed_run():
    return contended_run(Observability())


class TestFinishedRunIsFreed:
    @pytest.mark.parametrize(
        "run",
        [lambda: tracker_replay()(100), contended_observed_run, fault_run, regime_run],
        ids=["static", "static-contended-observed", "fault", "regime"],
    )
    def test_dropping_the_result_frees_the_trace_without_the_cycle_collector(
        self, run
    ):
        """The placement body's steps and the launch loop reach themselves;
        once the run is over the driver drops them (and a fault run's
        heartbeats still on the heap), so the executor, the world and the
        trace form no cycle and go by reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            trace = weakref.ref(run().trace)
            assert trace() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "run",
        [lambda: tracker_replay()(100), contended_run, contended_observed_run,
         fault_run, regime_run],
        ids=["static", "static-contended", "static-contended-observed", "fault",
             "regime"],
    )
    def test_a_finished_run_leaves_the_cycle_collector_nothing(self, run):
        """Not only the trace: nothing of the run is cyclic garbage.  Each
        STM channel and its connections point at each other; the driver
        detaches every connection once the run is over (46 objects were
        left to the collector by a 100-frame tracker replay before: 14
        connections, 6 channels, their dicts and lists, an item); a fault
        run left 26 while its degraded shapes were listed by a recursive
        closure that reached itself through its cell; a contended run left
        452 while each link grant — a request event whose value is itself —
        kept its cycle after the link was released (150 events, their
        callback lists and names, and the simulator); an observed contended
        run left 106 while each metric family kept its registry only to
        reach the registry's lock."""
        run()  # lazy imports and first-call set-up out of the count
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run()
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert garbage == 0
