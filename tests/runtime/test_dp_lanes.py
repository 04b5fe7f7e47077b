"""A data-parallel placement runs in the lanes it occupies, on both live
substrates.

A ``dp2`` placement over processors ``(2, 3)`` is one step in lane 2 and
one in lane 3: the primary (lane 2) gets, hands the merged inputs to lane
3, runs chunk 0, collects chunk 1 and joins; lane 3 runs chunk 1 between
its own placements.  These tests pin which thread runs each chunk, the
outputs (the serial kernels', bit for bit), the spans the primary records
(one per processor, as the DES writes them), what a listening calibrator
files, no deadlock at capacity 1, a failing chunk — the primary's after
the hand-out, or another lane's — that ends the run promptly, and the
two refusals raised before any thread starts or worker forks.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.errors import ExecutorConfigError, ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.obs import Observability
from repro.obs.calibrate import CostCalibrator
from repro.runtime.process import ProcessRuntime
from repro.runtime.static_exec import StaticExecutor
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State
from tests.integration.test_conformance import (
    N_FRAMES,
    WORKLOAD_FAMILIES,
    _fresh_setup,
    dp_schedule,
    run_on,
    serial_schedule,
    wl_run_on,
)
from tests.runtime.test_lanes import (
    LIVE,
    OP_TIMEOUT,
    assert_bitwise_equal,
    run_live,
    schedule_of,
    tracker,
)

pytestmark = pytest.mark.slow


def wide_graph(capacity=None, failing_chunk=None) -> TaskGraph:
    """src -> pre -> wide -> post, ``wide`` also reading ``a``.

    ``wide`` has a serial kernel and a chunk pair: each chunk doubles its
    band of ``a + p`` and names the thread that ran it, the join lists the
    names and concatenates the bands.  ``failing_chunk=(i, k)`` makes
    chunk ``i`` raise on its ``k``-th call."""
    g = TaskGraph("wide")
    for name in ("a", "p", "w"):
        g.add_channel(ChannelSpec(name, capacity=capacity))
    g.add_channel(ChannelSpec("out"))
    g.add_task(Task("src", cost=0.01, outputs=["a"],
                    compute=lambda s, ins, ts: {"a": np.arange(6.0)}))
    g.add_task(Task("pre", cost=0.01, inputs=["a"], outputs=["p"],
                    compute=lambda s, ins, ts: {"p": ins["a"] + 1}))
    calls = {}

    def chunk(state, ins, i, n):
        calls[i] = calls.get(i, 0) + 1
        if failing_chunk == (i, calls[i]):
            raise ReproError(f"chunk {i} failed")
        x = ins["a"] + ins["p"]
        lo, hi = len(x) * i // n, len(x) * (i + 1) // n
        return threading.current_thread().name, x[lo:hi] * 2

    def join(state, ins, partials):
        return {"w": ([name for name, _ in partials],
                      np.concatenate([band for _, band in partials]))}

    g.add_task(Task("wide", cost=0.02, inputs=["a", "p"], outputs=["w"],
                    compute=lambda s, ins, ts: {"w": ([threading.current_thread().name],
                                                  (ins["a"] + ins["p"]) * 2)},
                    compute_chunk=chunk, compute_join=join))
    g.add_task(Task("post", cost=0.01, inputs=["w"], outputs=["out"],
                    compute=lambda s, ins, ts: {"out": ins["w"]}))
    g.validate()
    return g


#: src and wide's primary on processor 2; pre, wide's chunk 1 and post on
#: processor 3 — the chunk lane runs a placement before and after it
WIDE_ROWS = [("src", (2,), 0), ("pre", (3,), 1), ("wide", (2, 3), 2),
             ("post", (3,), 3)]


def wide_run(substrate, frames=6, **kwargs):
    return run_live(substrate, wide_graph(**kwargs.pop("graph", {})), State(n_models=1),
                    schedule_of(WIDE_ROWS), frames=frames, **kwargs)


class TestChunksRunInTheirLanes:
    @pytest.mark.parametrize("substrate", LIVE)
    def test_each_chunk_runs_in_the_lane_of_its_processor(self, substrate):
        res = wide_run(substrate)
        outs = res.meta["outputs"]["out"]
        assert sorted(outs) == list(range(6))
        for ts, (lanes, values) in outs.items():
            assert lanes == ["lane:2", "lane:3"], ts
            assert_bitwise_equal(values, (2 * np.arange(6.0) + 1) * 2, str(ts))

    @pytest.mark.parametrize("substrate", LIVE)
    def test_primary_records_one_span_per_processor(self, substrate):
        res = wide_run(substrate, frames=3)
        wide = [s for s in res.trace.spans if s.task == "wide"]
        assert sorted((s.timestamp, s.proc, s.variant) for s in wide) == [
            (ts, proc, "dp2") for ts in range(3) for proc in (2, 3)]
        for ts in range(3):
            a, b = (s for s in wide if s.timestamp == ts)
            assert (a.start, a.end) == (b.start, b.end)


class TestOutputs:
    @pytest.mark.parametrize("app", ["tracker", *WORKLOAD_FAMILIES])
    def test_dp_outputs_equal_the_serial_kernels(self, app):
        """A dp2 run on either live substrate returns, bit for bit, what
        the serial kernels return on the serial schedule."""
        if app == "tracker":
            runs = {sub: run_on(sub, dp_schedule) for sub in LIVE}
            reference = run_on("threaded", serial_schedule)
        else:
            runs = {sub: wl_run_on(app, sub, "dp") for sub in LIVE}
            reference = wl_run_on(app, "threaded", "serial")
        for sub, res in runs.items():
            assert_bitwise_equal(res.meta["outputs"], reference.meta["outputs"], sub)


class TestNoDeadlock:
    @pytest.mark.parametrize("substrate", LIVE)
    def test_capacity_one_with_the_chunk_lane_busy_before_and_after(self, substrate):
        frames = 40
        res = wide_run(substrate, frames=frames, graph={"capacity": 1})
        assert res.completed == list(range(frames))


class TestBoundedFailure:
    @pytest.mark.parametrize("chunk", [0, 1])
    @pytest.mark.parametrize("substrate", LIVE)
    def test_a_failing_chunk_lane_ends_the_run_promptly(self, substrate, chunk):
        """Chunk 0 fails in the primary lane after the hand-out, chunk 1 in
        the chunk lane: either way the run ends in a typed error."""
        t0 = time.monotonic()
        with pytest.raises(ReproError,
                           match=f"chunk {chunk} failed|process runtime failed"):
            wide_run(substrate, frames=50,
                     graph={"capacity": 1, "failing_chunk": (chunk, 3)})
        assert time.monotonic() - t0 < OP_TIMEOUT / 2


class TestObservers:
    @pytest.mark.parametrize("substrate", LIVE)
    def test_calibrator_files_one_dp_observation_per_frame(self, substrate):
        state = State(n_models=2)
        calibrator = CostCalibrator(build_tracker_graph(frame_shape=(48, 64)), state,
                                    SINGLE_NODE_SMP(4))
        live, statics = _fresh_setup()
        StaticExecutor(live, state, SINGLE_NODE_SMP(4), dp_schedule(live, state),
                       runtime=substrate, static_inputs=statics,
                       obs=Observability(calibrator=calibrator)).run(N_FRAMES)
        filed = {key: stats.count for key, stats in calibrator.exec_stats.items()
                 if key[:2] == ("T4", "dp2")}
        assert sum(filed.values()) == N_FRAMES, filed


class TestRefusals:
    """Refused typed at construction: no thread started, no worker forked."""

    def test_dp_placement_spanning_nodes(self):
        graph, statics, state = tracker()
        rows = [("T1", (0,), 0), ("T2", (1,), 1), ("T3", (0,), 1),
                ("T4", (3, 0), 2), ("T5", (0,), 3)]
        before = threading.active_count()
        with pytest.raises(ExecutorConfigError, match=r"S004: 'T4' \(dp2\) spans nodes \[0, 1\]"):
            ProcessRuntime(graph, state, static_inputs=statics,
                           schedule=schedule_of(rows),
                           cluster=ClusterSpec(nodes=2, procs_per_node=2))
        assert threading.active_count() == before

    @pytest.mark.parametrize("runtime", LIVE)
    def test_dp_slot_without_a_chunk_kernel(self, runtime):
        graph = TaskGraph("serial-only")
        graph.add_channel(ChannelSpec("a"))
        graph.add_task(Task("src", cost=0.01, outputs=["a"],
                            compute=lambda s, ins, ts: {"a": 1}))
        graph.add_task(Task("sink", cost=0.01, inputs=["a"], outputs=[],
                            compute=lambda s, ins, ts: {}))
        schedule = schedule_of([("src", (0, 1), 0), ("sink", (0,), 1)])
        with pytest.raises(ExecutorConfigError, match="'src' is placed dp2 .* no compute_chunk"):
            if runtime == "threaded":
                ThreadedRuntime(graph, State(n_models=1), schedule=schedule)
            else:
                ProcessRuntime(graph, State(n_models=1), schedule=schedule,
                               cluster=SINGLE_NODE_SMP(4))
