"""ThreadedChannel equivalence of the process substrate's one op.

A worker reaches a boundary channel only through a
:class:`~repro.stm.process.StepBatch` step; a one-entry step is a blocking
``put`` / ``get`` / ``consume``.  These tests hold that path to the
threaded channel's blocking, timeout and poison behaviour.  The broker owns
real :class:`~repro.stm.channel.STMChannel` objects, so most tests run the
batches in the parent process, each on a pipe of its own, with the
broker's serving loop on a thread — the wire protocol is exercised end to
end without forking.  One test forks for real to cover the cross-process
shared-memory path, its consumer in the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.errors import ItemConsumed
from repro.stm.process import (
    SHM_THRESHOLD_BYTES,
    ChannelBroker,
    ShmRing,
    StepBatch,
    decode_value,
    encode_value,
)
from repro.stm.threaded import ChannelPoisoned
from tests.stm.test_step_batch import BrokerRig


class Rig(BrokerRig):
    """A served broker over one channel ``c``, connections pre-attached.

    ``put`` / ``get`` / ``consume`` are one-entry steps.  Puts go through
    one producer batch, which owns the producer connection's ring; gets and
    consumes through a fresh batch each, as separate lanes would.
    """

    def __init__(self, wait_until, capacity=None):
        super().__init__({"c": capacity}, wait_until)
        self.out = self.broker.attach_output("c", "prod")
        self.inp = self.broker.attach_input("c", "cons")
        self.producer = self.batch()

    def put(self, ts, value, timeout=None):
        self.producer.put("c", self.out, ts, value)
        self.producer.commit(timeout=timeout)

    def get(self, ts, timeout=None):
        batch = self.batch()
        batch.get("c", self.inp, ts)
        return batch.commit(timeout=timeout)[0]

    def consume(self, ts):
        batch = self.batch()
        batch.consume("c", self.inp, ts)
        batch.commit()

    @property
    def ring(self) -> ShmRing:
        return self.producer._rings[("c", self.out)]


@pytest.fixture
def rig(wait_until):
    r = Rig(wait_until)
    yield r
    r.close()


@pytest.fixture
def bounded(wait_until):
    r = Rig(wait_until, capacity=1)
    yield r
    r.close()


class TestEncoding:
    def test_small_values_pickle(self):
        ring = ShmRing()
        enc = encode_value({"k": [1, 2]}, ring, 0)
        assert enc[0] == "pickle"
        assert decode_value(enc) == {"k": [1, 2]}
        assert ring.created == 0

    def test_large_arrays_ride_shared_memory(self):
        ring = ShmRing()
        arr = np.arange(SHM_THRESHOLD_BYTES, dtype=np.uint8).reshape(64, -1)
        try:
            enc = encode_value(arr, ring, 0)
            assert enc[0] == "shm"
            out = decode_value(enc)
            np.testing.assert_array_equal(out, arr)
            assert out.flags.owndata  # copied out: safe after segment closes
        finally:
            ring.release([0])
            ring.close()
        assert ring.created == 1

    def test_ring_recycles_released_segments(self):
        ring = ShmRing()
        try:
            for ts in range(4):
                encode_value(np.zeros(8192, dtype=np.uint8), ring, ts)
                ring.release([ts])
            assert ring.created == 1
            assert ring.recycled == 3
        finally:
            ring.close()


class TestProxyRoundtrip:
    """One-entry steps: the blocking channel calls of the process
    substrate."""

    def test_put_get_consume(self, rig):
        rig.put(0, {"v": 7})
        assert rig.get(0, timeout=5.0) == (0, {"v": 7})
        rig.consume(0)
        stats = rig.broker.stats()["c"]
        assert stats["puts"] == 1
        assert stats["consumed"] == 1
        assert stats["collected"] == 1

    def test_get_of_consumed_ts_raises(self, rig):
        # A second input conn keeps the item alive past conn 1's consume,
        # so the blocking get sees "consumed" (an error), not "missing".
        rig.broker.attach_input("c", "other")
        rig.put(0, "x")
        rig.get(0, timeout=5.0)
        rig.consume(0)
        with pytest.raises(ItemConsumed):
            rig.get(0, timeout=1.0)

    def test_blocked_get_unblocks_on_put(self, rig, wait_until):
        got = []
        t = threading.Thread(target=lambda: got.append(rig.get(0, timeout=5.0)))
        t.start()
        # The step parks inside the broker once the request arrives.
        wait_until(lambda: rig.broker._steps)
        assert not got
        rig.put(0, "late")
        t.join(timeout=5.0)
        assert got == [(0, "late")]

    def test_get_timeout(self, rig):
        with pytest.raises(TimeoutError):
            rig.get(0, timeout=0.05)

    def test_shm_payload_roundtrip(self, rig):
        arr = np.random.default_rng(0).random((64, 64))
        rig.put(0, arr)
        ts, out = rig.get(0, timeout=5.0)
        np.testing.assert_array_equal(out, arr)
        rig.consume(0)

    def test_put_replies_feed_ring_recycling(self, rig):
        for ts in range(6):
            rig.put(ts, np.zeros((64, 64)))
            rig.get(ts, timeout=5.0)
            rig.consume(ts)
        # Each step reply returns the previously collected timestamps, so
        # the producer-side ring reuses segments instead of growing.
        assert rig.ring.recycled >= 4
        assert rig.ring.created <= 2


class TestCapacityAndPoison:
    def test_put_blocks_then_unblocks(self, bounded, wait_until):
        bounded.put(0, "a")
        done = []
        t = threading.Thread(
            target=lambda: done.append(bounded.put(1, "b", timeout=5.0))
        )
        t.start()
        wait_until(lambda: bounded.broker._steps)
        assert not done
        bounded.get(0, timeout=5.0)
        bounded.consume(0)
        t.join(timeout=5.0)
        assert len(done) == 1

    def test_put_timeout_when_full(self, bounded):
        bounded.put(0, "a")
        with pytest.raises(TimeoutError):
            bounded.put(1, "b", timeout=0.05)

    def test_poison_wakes_blocked_getter(self, rig, wait_until):
        seen = []

        def getter():
            try:
                rig.get(0, timeout=5.0)
            except ChannelPoisoned:
                seen.append("poisoned")

        t = threading.Thread(target=getter)
        t.start()
        wait_until(lambda: rig.broker._steps)
        rig.poison()
        t.join(timeout=5.0)
        assert seen == ["poisoned"]

    def test_operations_after_poison_raise(self, rig):
        rig.poison()
        with pytest.raises(ChannelPoisoned):
            rig.put(0, "x")


def _child_producer(pipe, control, conn_out):
    batch = StepBatch(pipe)
    for ts in range(3):
        batch.put("c", conn_out, ts, np.full((64, 64), float(ts)))
        batch.commit(timeout=10.0)
    control.send(("done", {}))
    os._exit(0)


class TestCrossProcess:
    def test_fork_producer_parent_consumer(self):
        """A forked producer and a consumer in the parent, the broker served
        by the parent's main thread as in a process run."""
        broker = ChannelBroker({"c": 8})
        conn_out = broker.attach_output("c", "prod")
        conn_in = broker.attach_input("c", "cons")
        ends = (broker.pipe(7), broker.pipe(7))
        child = multiprocessing.get_context("fork").Process(
            target=_child_producer, args=(*ends, conn_out))
        child.start()
        for end in ends:
            end.close()
        consumer = StepBatch(broker.pipe(1))
        got = []

        def consume():
            for ts in range(3):
                if ts:
                    consumer.consume("c", conn_in, ts - 1)
                consumer.get("c", conn_in, ts)
                got.extend(consumer.commit(timeout=10.0))
            consumer.consume("c", conn_in, 2)
            consumer.commit(timeout=10.0)

        lane = threading.Thread(target=consume)
        lane.start()
        try:
            deadline = time.monotonic() + 10.0
            while lane.is_alive() and time.monotonic() < deadline:
                broker.turn(0.01)
            lane.join(1.0)
            child.join(10.0)
            broker.hang_up(7)
            assert not lane.is_alive()
            assert child.exitcode == 0
            assert [(ts, val[0, 0]) for ts, val in got] == [
                (ts, float(ts)) for ts in range(3)]
            stats = broker.stats()["c"]
            assert stats["puts"] == 3
            assert stats["collected"] == 3
            # the child's three puts, the parent's three gets and last consume
            assert broker.op_counts == {"step": 3 + 4, "done": 1}
        finally:
            broker.close()
