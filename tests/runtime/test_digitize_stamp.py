"""A frame's digitize stamp is when its source's last put landed.

A stamp read off the clock once the source's step had returned let a
source thread that was descheduled in between stamp a frame after the
frame had already completed.  Both live substrates are held to causality
here with the stamp itself made slow: every frame completes at or after
its digitize stamp.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.live import FrameStamps
from repro.runtime.process import ProcessRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.state import State

FRAMES = 5


def chain() -> TaskGraph:
    g = TaskGraph("chain")
    g.add_channel(ChannelSpec("a"))
    g.add_channel(ChannelSpec("b"))
    g.add_task(Task("src", cost=0.01, outputs=["a"],
                    compute=lambda s, ins, ts: {"a": np.full((100, 100), 1.0)}))
    g.add_task(Task("dbl", cost=0.01, inputs=["a"], outputs=["b"],
                    compute=lambda s, ins, ts: {"b": ins["a"] * 2}))
    return g


@pytest.fixture
def slow_stamps(monkeypatch):
    """Every stamp sleeps 50 ms before it is taken (forked workers inherit
    the patch)."""
    stamp = FrameStamps.stamp

    def slow(self, *args):
        time.sleep(0.05)  # noqa: TID251  # the source, descheduled after its puts
        return stamp(self, *args)

    monkeypatch.setattr(FrameStamps, "stamp", slow)


def assert_causal(result) -> None:
    assert sorted(result.digitize_times) == list(range(FRAMES))
    assert sorted(result.completion_times) == list(range(FRAMES))
    for ts, done in result.completion_times.items():
        assert done >= result.digitize_times[ts], ts


def test_threads_complete_no_frame_before_its_stamp(slow_stamps):
    assert_causal(ThreadedRuntime(chain(), State(n_models=1),
                                  op_timeout=30.0).run(FRAMES))


@pytest.mark.slow
def test_processes_complete_no_frame_before_its_stamp(slow_stamps):
    assert_causal(ProcessRuntime(chain(), State(n_models=1), op_timeout=30.0,
                                 placement={"src": 0, "dbl": 1}).run(FRAMES))
