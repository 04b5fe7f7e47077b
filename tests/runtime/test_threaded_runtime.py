"""Unit tests for the live (real-thread) runtime."""

from __future__ import annotations

import pytest

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.builders import chain_graph
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.process import ProcessRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.state import State


def compute_chain_graph():
    """src doubles ts, mid adds 1; terminal channel collects results."""
    g = TaskGraph("live-chain")
    g.add_channel(ChannelSpec("a"))
    g.add_channel(ChannelSpec("b"))
    counter = {"ts": 0}

    def src(state, inputs):
        v = counter["ts"] * 2
        counter["ts"] += 1
        return {"a": v}

    def mid(state, inputs):
        return {"b": inputs["a"] + 1}

    g.add_task(Task("src", cost=0.0, outputs=["a"], compute=src))
    g.add_task(Task("mid", cost=0.0, inputs=["a"], outputs=["b"], compute=mid))
    g.validate()
    return g


class TestBasicPipeline:
    def test_values_flow_in_order(self):
        rt = ThreadedRuntime(compute_chain_graph(), State(n_models=1), op_timeout=10)
        res = rt.run(8)
        assert res.meta["outputs"]["b"] == {ts: ts * 2 + 1 for ts in range(8)}

    def test_channel_stats_balanced(self):
        rt = ThreadedRuntime(compute_chain_graph(), State(n_models=1), op_timeout=10)
        res = rt.run(5)
        assert res.meta["channel_stats"]["a"]["puts"] == 5
        assert res.meta["channel_stats"]["a"]["collected"] == 5
        assert res.meta["channel_stats"]["b"]["collected"] == 5

    def test_passthrough_without_kernel(self):
        g = TaskGraph("passthrough")
        g.add_channel(ChannelSpec("a"))
        g.add_channel(ChannelSpec("b"))
        g.add_task(Task("src", cost=0.0, outputs=["a"]))
        g.add_task(Task("relay", cost=0.0, inputs=["a"], outputs=["b"]))
        g.validate()
        # Neither task has a compute kernel: inputs pass through as dicts.
        rt = ThreadedRuntime(g, State(n_models=1), op_timeout=10)
        res = rt.run(3)
        assert set(res.meta["outputs"]["b"]) == {0, 1, 2}

    def test_invalid_timestamps(self):
        rt = ThreadedRuntime(compute_chain_graph(), State(n_models=1))
        with pytest.raises(ReproError):
            rt.run(0)


class TestErrorPropagation:
    def test_kernel_exception_reaches_caller(self):
        g = TaskGraph("boom")
        g.add_channel(ChannelSpec("a"))

        def bad(state, inputs):
            raise RuntimeError("kernel exploded")

        g.add_task(Task("src", cost=0.0, outputs=["a"], compute=bad))
        g.validate()
        rt = ThreadedRuntime(g, State(n_models=1), op_timeout=5)
        with pytest.raises(RuntimeError, match="kernel exploded"):
            rt.run(2)

    def test_non_dict_kernel_result_rejected(self):
        g = TaskGraph("bad-shape")
        g.add_channel(ChannelSpec("a"))
        g.add_task(Task("src", cost=0.0, outputs=["a"], compute=lambda s, i: 42))
        g.validate()
        rt = ThreadedRuntime(g, State(n_models=1), op_timeout=5)
        with pytest.raises(ReproError, match="expected dict"):
            rt.run(1)

    def test_missing_output_channel_rejected(self):
        g = TaskGraph("missing-out")
        g.add_channel(ChannelSpec("a"))
        g.add_task(Task("src", cost=0.0, outputs=["a"], compute=lambda s, i: {}))
        g.validate()
        rt = ThreadedRuntime(g, State(n_models=1), op_timeout=5)
        with pytest.raises(ReproError, match="no value for"):
            rt.run(1)

    def test_missing_static_input_rejected(self):
        g = TaskGraph("needs-config")
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_channel(ChannelSpec("out"))
        g.add_task(
            Task("src", cost=0.0, inputs=["cfg"], outputs=["out"],
                 compute=lambda s, i: {"out": i["cfg"]})
        )
        g.validate()
        with pytest.raises(ReproError, match="static"):
            ThreadedRuntime(g, State(n_models=1))

    @pytest.mark.parametrize("runtime", [ThreadedRuntime, ProcessRuntime],
                             ids=["threaded", "process"])
    @pytest.mark.parametrize("statics", [{"nope": 1}, {"c0": 5}],
                             ids=["unknown", "streaming"])
    def test_static_input_for_no_static_channel_rejected(self, runtime, statics):
        # Refused at construction: before any thread starts or any fork.
        [name] = statics
        with pytest.raises(ExecutorConfigError, match=repr(name)):
            runtime(chain_graph([1.0, 1.0]), State(n_models=1),
                    static_inputs=statics)


class TestStaticInputs:
    def test_static_value_visible_every_timestamp(self):
        g = TaskGraph("cfg")
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_channel(ChannelSpec("out"))
        g.add_task(
            Task("src", cost=0.0, inputs=["cfg"], outputs=["out"],
                 compute=lambda s, i: {"out": i["cfg"] * 2})
        )
        g.validate()
        rt = ThreadedRuntime(g, State(n_models=1), static_inputs={"cfg": 21})
        res = rt.run(3)
        assert res.meta["outputs"]["out"] == {0: 42, 1: 42, 2: 42}


class TestLiveTracker:
    def test_tracker_finds_ground_truth(self):
        from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
        from repro.apps.video import VideoSource

        video = VideoSource(n_targets=3, height=48, width=64, seed=11)
        live, statics = attach_kernels(build_tracker_graph(), video)
        rt = ThreadedRuntime(live, State(n_models=3), static_inputs=statics,
                             op_timeout=30)
        res = rt.run(4)
        for ts, locations in res.meta["outputs"]["model_locations"].items():
            truth = video.positions(ts)
            for (r, c, score), (tr, tc) in zip(locations, truth):
                # Peak must land inside the target patch.
                assert tr <= r < tr + video.target_size
                assert tc <= c < tc + video.target_size
                assert score > 0.5
