"""Unit tests for the simulator-bound channel hubs."""

from __future__ import annotations

import pytest

from repro.graph.builders import chain_graph
from repro.runtime.hub import ChannelHub, build_hubs
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.stm.channel import STMChannel


@pytest.fixture
def hub():
    sim = Simulator()
    trace = TraceRecorder()
    return sim, ChannelHub(sim, STMChannel("c"), trace), trace


class TestNotification:
    def test_put_fires_change_event(self, hub):
        sim, h, _ = hub
        out = h.stm.attach_output("p")
        ev = h.wait_change()
        sim.call_at(1.0, h.put, out, 0, "x")
        sim.run()
        assert ev.fired and sim.now == 1.0

    def test_consume_fires_change_event(self, hub):
        sim, h, _ = hub
        out = h.stm.attach_output("p")
        inp = h.stm.attach_input("q")
        assert h.put(out, 0, "x")
        ev = h.wait_change()
        h.consume(inp, 0)
        assert ev.triggered

    def test_each_change_event_is_fresh(self, hub):
        sim, h, _ = hub
        first = h.wait_change()
        h._notify()
        second = h.wait_change()
        assert first is not second


class TestBlockingPut:
    def test_put_blocks_at_capacity_until_gc(self):
        sim = Simulator()
        h = ChannelHub(sim, STMChannel("c", capacity=1))
        out = h.stm.attach_output("p")
        inp = h.stm.attach_input("q")
        done = []

        def producer(_changed=None):
            if h.put(out, 1, "b"):
                done.append(sim.now)
            else:  # capacity 1: retry at the next change
                h.wait_change().add_callback(producer)

        def consumer():
            h.try_get(inp, 0)
            h.consume(inp, 0)  # GC frees the slot -> producer resumes

        assert h.put(out, 0, "a")
        producer()
        sim.call_at(5.0, consumer)
        sim.run()
        assert done == [5.0]


class TestTraceIntegration:
    def test_items_recorded(self, hub):
        sim, h, trace = hub
        out = h.stm.attach_output("p")
        inp = h.stm.attach_input("q")
        h.put(out, 0, "x")
        h.try_get(inp, 0)
        h.consume(inp, 0)
        kinds = [e.kind for e in trace.items]
        assert kinds == ["put", "get", "consume"]
        assert trace.items[0].task == "p"

    def test_put_time_tracked(self, hub):
        sim, h, trace = hub
        out = h.stm.attach_output("p")
        sim.call_at(3.0, h.put, out, 7, "x")
        sim.run()
        assert [(e.kind, e.timestamp, e.time) for e in trace.items] == [("put", 7, 3.0)]

    def test_gc_stats_accumulate(self, hub):
        sim, h, _ = hub
        out = h.stm.attach_output("p")
        inp = h.stm.attach_input("q")
        for ts in range(3):
            h.put(out, ts, ts)
            h.try_get(inp, ts)
            h.consume(inp, ts)
        assert h.gc_stats.collected == 3


class TestBuildHubs:
    def test_one_hub_per_channel(self):
        sim = Simulator()
        g = chain_graph([1.0, 1.0, 1.0])
        hubs = build_hubs(sim, g)
        assert set(hubs) == {"c0", "c1"}

    def test_capacity_override(self):
        sim = Simulator()
        g = chain_graph([1.0, 1.0])
        hubs = build_hubs(sim, g, capacity_override={"c0": 7})
        assert hubs["c0"].stm.capacity == 7
