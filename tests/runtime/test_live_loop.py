"""The one live frame loop, driven with a recording fake exchange."""

from __future__ import annotations

import pytest

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    check_static_inputs,
    check_timestamps,
    merge_completion,
    run_frames,
    terminal_channels,
)


def relay_graph() -> TaskGraph:
    g = TaskGraph("relay")
    g.add_channel(ChannelSpec("cfg", static=True))
    g.add_channel(ChannelSpec("a"))
    g.add_channel(ChannelSpec("b"))
    g.add_channel(ChannelSpec("c"))
    g.add_task(Task("src", cost=0.0, outputs=["a"]))
    g.add_task(Task("relay", cost=0.0, inputs=["cfg", "a"], outputs=["b", "c"]))
    g.validate()
    return g


class RecordingExchange:
    """Records ``(done timestamp, ts)`` and what each step handed over."""

    def __init__(self):
        self.calls = []
        self.handed_over = []

    def __call__(self, done, ts):
        self.calls.append((done and done[0], ts))
        if done is not None:
            self.handed_over.append(done)
        return None if ts is None else {"a": ts}


@pytest.fixture
def plan():
    return build_task_plans(relay_graph())["relay"]


class TestRunFrames:
    def test_one_exchange_per_frame_and_one_flush(self, plan):
        exchange = RecordingExchange()
        run_frames(plan, exchange, lambda ins, ts: {"b": ins["a"], "c": ts},
                   0, 4)
        assert exchange.calls == [(None, 0), (0, 1), (1, 2), (2, 3), (3, None)]
        assert exchange.handed_over == [
            (ts, {"b": ts, "c": ts}) for ts in range(4)
        ]

    def test_resume_starts_at_first(self, plan):
        exchange = RecordingExchange()
        run_frames(plan, exchange, lambda ins, ts: {"b": 0, "c": 0}, 2, 4)
        assert exchange.calls == [(None, 2), (2, 3), (3, None)]

    def test_nothing_to_do_means_no_exchange(self, plan):
        exchange = RecordingExchange()
        run_frames(plan, exchange, None, 4, 4)
        assert exchange.calls == []

    def test_no_kernel_passes_inputs_to_every_output(self, plan):
        exchange = RecordingExchange()
        run_frames(plan, exchange, None, 0, 1)
        assert exchange.handed_over == [(0, {"b": {"a": 0}, "c": {"a": 0}})]

    def test_missing_output_raises_before_next_exchange(self, plan):
        exchange = RecordingExchange()
        with pytest.raises(ReproError, match="no value for channel 'c'"):
            run_frames(plan, exchange, lambda ins, ts: {"b": 1}, 0, 3)
        assert exchange.calls == [(None, 0)]

    def test_non_dict_result_raises_before_next_exchange(self, plan):
        exchange = RecordingExchange()
        with pytest.raises(ReproError, match="expected dict"):
            run_frames(plan, exchange, lambda ins, ts: 42, 0, 3)
        assert exchange.calls == [(None, 0)]


class TestSharedPieces:
    def test_terminal_channels_are_produced_and_unconsumed(self):
        assert terminal_channels(relay_graph()) == ["b", "c"]

    def test_completion_is_the_last_terminal_arrival(self):
        arrivals = {"b": {0: 1.0, 1: 2.0}, "c": {0: 1.5}}
        assert merge_completion(arrivals) == {0: 1.5}
        assert merge_completion({}) == {}

    def test_config_errors_are_typed(self):
        with pytest.raises(ExecutorConfigError, match="static channel 'cfg'"):
            check_static_inputs(relay_graph(), {})
        check_static_inputs(relay_graph(), {"cfg": 1})
        with pytest.raises(ExecutorConfigError, match=">= 1"):
            check_timestamps(0)
