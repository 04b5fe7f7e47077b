"""Retry/backoff wrappers: bounded STM waits instead of deadlocks.

The wrappers left ``src/`` with the generator fault body that used them;
they are part of the differential oracle now (``fault_generator_oracle.py``)
and these tests keep that reference honest.
"""

from __future__ import annotations

import pytest

from repro.runtime.hub import ChannelHub
from repro.sim.engine import Simulator
from repro.stm.channel import STMChannel

from .fault_generator_oracle import (
    FaultTimeout,
    RetryPolicy,
    get_with_retry,
    put_with_retry,
)


def make_hub(capacity=None) -> tuple[Simulator, ChannelHub]:
    sim = Simulator()
    return sim, ChannelHub(sim, STMChannel("ch", capacity=capacity))


class TestPolicy:
    def test_delays_grow_and_cap(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.1, factor=2.0, max_delay=0.5)
        assert [p.delay(i) for i in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_budget(self):
        p = RetryPolicy(max_attempts=3, base_delay=0.1, factor=2.0, max_delay=10.0)
        assert p.budget == pytest.approx(0.7)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)


class TestGetWithRetry:
    def test_immediate_hit_costs_no_time(self):
        sim, hub = make_hub()
        out = hub.stm.attach_output("p")
        inp = hub.stm.attach_input("c")
        hub.stm.put(out, 0, "x")
        got = []

        def consumer():
            got.append((yield from get_with_retry(hub, inp, 0)))

        sim.process(consumer())
        sim.run()
        assert got == [(0, "x")]
        assert sim.now == 0.0

    def test_wakes_when_producer_puts(self):
        sim, hub = make_hub()
        out = hub.stm.attach_output("p")
        inp = hub.stm.attach_input("c")
        got = []

        def producer():
            yield sim.timeout(0.07)
            yield from hub.put(out, 0, "late")

        def consumer():
            item = yield from get_with_retry(hub, inp, 0)
            got.append((sim.now, item))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        # Woken by the channel-change event, not the next backoff tick.
        assert got == [(pytest.approx(0.07), (0, "late"))]

    def test_times_out_when_producer_dead(self):
        sim, hub = make_hub()
        inp = hub.stm.attach_input("c")
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, factor=2.0)
        errors = []

        def consumer():
            try:
                yield from get_with_retry(hub, inp, 0, policy)
            except FaultTimeout as e:
                errors.append(e)

        sim.process(consumer())
        sim.run()
        assert len(errors) == 1
        assert errors[0].channel == "ch"
        assert errors[0].attempts == 3
        # Two backoff sleeps: 0.1 + 0.2.
        assert sim.now == pytest.approx(0.3)


class TestPutWithRetry:
    def test_times_out_on_full_channel_with_dead_consumer(self):
        sim, hub = make_hub(capacity=1)
        out = hub.stm.attach_output("p")
        hub.stm.attach_input("c")  # consumer never consumes
        hub.stm.put(out, 0, "first")
        policy = RetryPolicy(max_attempts=2, base_delay=0.25, factor=2.0)
        errors = []

        def producer():
            try:
                yield from put_with_retry(hub, out, 1, "second", policy=policy)
            except FaultTimeout as e:
                errors.append(e)

        sim.process(producer())
        sim.run()
        assert len(errors) == 1
        assert sim.now == pytest.approx(0.25)

    def test_succeeds_once_capacity_frees(self):
        sim, hub = make_hub(capacity=1)
        out = hub.stm.attach_output("p")
        inp = hub.stm.attach_input("c")
        hub.stm.put(out, 0, "first")

        def consumer():
            yield sim.timeout(0.1)
            hub.try_get(inp, 0)
            hub.consume(inp, 0)

        def producer():
            yield from put_with_retry(hub, out, 1, "second")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert hub.stm.holds(1)
