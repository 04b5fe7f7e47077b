"""What a frame costs a live lane: the Python calls a lane thread makes.

The timing side of this lives in ``benchmarks/e2e`` (``live_threaded``),
whose same-code spread is wide; the call count behind it repeats exactly,
so it can gate on any host.  One lane (a one-processor schedule) means no
thread ever waits on another, so the count is the lane's own work and
nothing of the scheduler's.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.core.optimal import OptimalScheduler
from repro.graph.builders import chain_graph
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


def one_lane_run():
    """A kernel-less three-task chain on one processor: a single lane."""
    graph, state = chain_graph([1.0, 1.0, 1.0]), State(n_models=1)
    solution = OptimalScheduler(SINGLE_NODE_SMP(1)).solve(graph, state)
    return lambda frames: ThreadedRuntime(
        graph, state, schedule=solution, op_timeout=20.0
    ).run(frames)


def thread_calls(fn) -> Counter:
    """Python-level calls each thread ``fn()`` starts makes, by thread
    name: the profiler's ``"call"`` events, generator resumptions
    included.  The calling thread is not profiled."""
    counts: Counter = Counter()

    def profile(_frame, event, _arg):
        if event == "call":
            counts[threading.current_thread().name] += 1

    threading.setprofile(profile)
    try:
        fn()
    finally:
        threading.setprofile(None)
    return counts


def lane_calls_per_frame(run) -> float:
    """Python-level calls a frame of ``run``'s one lane, between a 100- and
    a 400-frame run so that a run's fixed cost drops out."""
    run(10)  # lazy imports and first-call set-up out of the count
    short, long = thread_calls(lambda: run(100)), thread_calls(lambda: run(400))
    assert set(short) == set(long) == {"lane:0"}
    return (long["lane:0"] - short["lane:0"]) / 300


class TestLaneCallsPerFrame:
    def test_a_live_lane_frame_holds_its_call_budget(self):
        """The host-independent cost of a live frame: 45.0 calls a frame of
        a one-lane threaded chain run on Python 3.11, six of them
        ``ThreadedChannel`` operations (two puts, two gets, two consumes).
        18 of the 45 are ``_observe`` with no listener (6) and
        ``Condition.notify_all`` -> ``notify`` -> ``_is_owned`` with no
        waiter (12)."""
        assert lane_calls_per_frame(one_lane_run()) <= 49.5  # 45 + 10 %

    def test_the_count_repeats_exactly(self):
        """No wait, no timer, no scheduler choice enters the count: two
        measurements of the same run agree to the call."""
        run = one_lane_run()
        assert lane_calls_per_frame(run) == lane_calls_per_frame(run)
