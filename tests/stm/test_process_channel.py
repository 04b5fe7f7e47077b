"""ThreadedChannel equivalence of the process-substrate proxy.

:class:`~repro.stm.process.ProcessChannel` offers ThreadedChannel's
blocking ``put`` / ``get`` / ``consume``; each call is a one-entry
``step``, the same broker op the process runtime's frame loop issues, so
these tests hold the production path to the threaded channel's blocking,
timeout, wildcard and poison behaviour.  The broker's service thread owns
real :class:`~repro.stm.channel.STMChannel` objects, so most tests run the
proxy in the parent process over an in-process
:class:`~repro.stm.process.WorkerLink` — the wire protocol is exercised end
to end without forking.  One test forks for real to cover the
cross-process shared-memory path.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ItemConsumed
from repro.stm.channel import NEWEST
from repro.stm.process import (
    SHM_THRESHOLD_BYTES,
    ChannelBroker,
    ProcessChannel,
    ShmRing,
    WorkerLink,
    _mp_context,
    decode_value,
    encode_value,
)
from repro.stm.threaded import ChannelPoisoned


class Rig:
    """One broker + one in-parent proxy link, with conns pre-attached."""

    def __init__(self, capacity=None):
        self.broker = ChannelBroker({"c": capacity})
        self.out = self.broker.attach_output("c", "prod")
        self.inp = self.broker.attach_input("c", "cons")
        replies = self.broker.register_worker(1)
        self.broker.start()
        self.link = WorkerLink(1, self.broker.requests, replies)
        self.link.start()
        self.chan = ProcessChannel("c", self.link)

    def close(self):
        self.link.stop()
        self.chan.close()
        self.broker.stop()


@pytest.fixture
def rig():
    r = Rig()
    yield r
    r.close()


@pytest.fixture
def bounded():
    r = Rig(capacity=1)
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
    def test_put_get_consume(self, rig):
        rig.chan.put(rig.out, 0, {"v": 7})
        ts, value = rig.chan.get(rig.inp, 0, timeout=5.0)
        assert (ts, value) == (0, {"v": 7})
        rig.chan.consume(rig.inp, 0)
        stats = rig.broker.stats()["c"]
        assert stats["puts"] == 1
        assert stats["consumed"] == 1
        assert stats["collected"] == 1

    def test_newest_wildcard(self, rig):
        rig.chan.put(rig.out, 0, "a")
        rig.chan.put(rig.out, 3, "b")
        assert rig.chan.get(rig.inp, NEWEST, timeout=5.0) == (3, "b")

    def test_get_of_consumed_ts_raises(self, rig):
        # A second input conn keeps the item alive past conn 1's consume,
        # so the blocking get sees "consumed" (an error), not "missing".
        rig.broker.attach_input("c", "other")
        rig.chan.put(rig.out, 0, "x")
        rig.chan.get(rig.inp, 0, timeout=5.0)
        rig.chan.consume(rig.inp, 0)
        with pytest.raises(ItemConsumed):
            rig.chan.get(rig.inp, 0, timeout=1.0)

    def test_blocked_get_unblocks_on_put(self, rig, wait_until):
        got = []
        t = threading.Thread(
            target=lambda: got.append(rig.chan.get(rig.inp, 0, timeout=5.0))
        )
        t.start()
        # The step parks inside the broker once the request arrives.
        wait_until(lambda: rig.broker._steps)
        assert not got
        rig.chan.put(rig.out, 0, "late")
        t.join(timeout=5.0)
        assert got == [(0, "late")]

    def test_get_timeout(self, rig):
        with pytest.raises(TimeoutError):
            rig.chan.get(rig.inp, 0, timeout=0.05)

    def test_shm_payload_roundtrip(self, rig):
        arr = np.random.default_rng(0).random((64, 64))
        rig.chan.put(rig.out, 0, arr)
        ts, out = rig.chan.get(rig.inp, 0, timeout=5.0)
        np.testing.assert_array_equal(out, arr)
        rig.chan.consume(rig.inp, 0)

    def test_put_replies_feed_ring_recycling(self, rig):
        for ts in range(6):
            rig.chan.put(rig.out, ts, np.zeros((64, 64)))
            rig.chan.get(rig.inp, ts, timeout=5.0)
            rig.chan.consume(rig.inp, ts)
        # Each step reply returns the previously collected timestamps, so
        # the producer-side ring reuses segments instead of growing.
        assert rig.chan._ring.recycled >= 4
        assert rig.chan._ring.created <= 2


class TestCapacityAndPoison:
    def test_put_blocks_then_unblocks(self, bounded, wait_until):
        bounded.chan.put(bounded.out, 0, "a")
        done = []
        t = threading.Thread(
            target=lambda: done.append(
                bounded.chan.put(bounded.out, 1, "b", timeout=5.0)
            )
        )
        t.start()
        wait_until(lambda: bounded.broker._steps)
        assert not done
        bounded.chan.get(bounded.inp, 0, timeout=5.0)
        bounded.chan.consume(bounded.inp, 0)
        t.join(timeout=5.0)
        assert len(done) == 1

    def test_put_timeout_when_full(self, bounded):
        bounded.chan.put(bounded.out, 0, "a")
        with pytest.raises(TimeoutError):
            bounded.chan.put(bounded.out, 1, "b", timeout=0.05)

    def test_poison_wakes_blocked_getter(self, rig):
        seen = []

        def getter():
            try:
                rig.chan.get(rig.inp, 0, timeout=5.0)
            except ChannelPoisoned:
                seen.append("poisoned")

        t = threading.Thread(target=getter)
        t.start()
        rig.broker.poison_all()
        t.join(timeout=5.0)
        assert seen == ["poisoned"]

    def test_operations_after_poison_raise(self, rig):
        rig.broker.poison_all()
        with pytest.raises(ChannelPoisoned):
            rig.chan.put(rig.out, 0, "x")


def _child_producer(requests, replies, conn_out):
    link = WorkerLink(7, requests, replies)
    link.start()
    chan = ProcessChannel("c", link)
    for ts in range(3):
        chan.put(conn_out, ts, np.full((64, 64), float(ts)), timeout=10.0)
    link.notify("done", {})
    link.stop()
    import os

    requests.close()
    requests.join_thread()
    os._exit(0)


class TestCrossProcess:
    def test_fork_producer_parent_consumer(self):
        broker = ChannelBroker({"c": 8})
        conn_out = broker.attach_output("c", "prod")
        conn_in = broker.attach_input("c", "cons")
        child_replies = broker.register_worker(7)
        broker.start()
        replies = broker.register_worker(0)
        link = WorkerLink(0, broker.requests, replies)
        link.start()
        try:
            ctx = _mp_context()
            p = ctx.Process(
                target=_child_producer,
                args=(broker.requests, child_replies, conn_out),
            )
            p.start()
            chan = ProcessChannel("c", link)
            for ts in range(3):
                got_ts, val = chan.get(conn_in, ts, timeout=10.0)
                assert got_ts == ts
                assert val[0, 0] == float(ts)
                chan.consume(conn_in, ts)
            p.join(10.0)
            assert p.exitcode == 0
            stats = broker.stats()["c"]
            assert stats["puts"] == 3
            assert stats["collected"] == 3
        finally:
            link.stop()
            broker.stop()
