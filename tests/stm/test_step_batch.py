"""Unit tests for the broker's one op, the step, and the shm threshold.

The ``step`` op carries one frame's consumes + puts + gets in a single
broker request (a blocking ``ProcessChannel`` call is its one-entry
form).  Its contract: byte-identical STM effects to issuing the ops one
by one (same counters, same errors), with consumes applied immediately
on first dispatch — even while the step's puts or gets are parked — so
batching can never withhold capacity and deadlock a bounded pipeline.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.errors import DuplicateTimestamp, ItemConsumed, STMError
from repro.stm.process import (
    SHM_THRESHOLD_BYTES,
    ChannelBroker,
    ProcessChannel,
    ShmRing,
    StepBatch,
    WorkerLink,
    encode_value,
    resolve_shm_threshold,
)
from repro.stm.threaded import ChannelPoisoned


class Rig:
    """Broker + one in-parent link over two channels ``a`` -> ``b``."""

    def __init__(self, capacity=None):
        self.broker = ChannelBroker({"a": capacity, "b": capacity})
        self.out = {ch: self.broker.attach_output(ch, "prod")
                    for ch in ("a", "b")}
        self.inp = {ch: self.broker.attach_input(ch, "cons")
                    for ch in ("a", "b")}
        replies = self.broker.register_worker(1)
        self.broker.start()
        self.link = WorkerLink(1, self.broker.requests, replies)
        self.link.start()
        self.chans = {ch: ProcessChannel(ch, self.link) for ch in ("a", "b")}

    def batch(self, replay=False) -> StepBatch:
        return StepBatch(self.link, replay=replay)

    def close(self):
        self.link.stop()
        for ch in self.chans.values():
            ch.close()
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


class TestStepSemantics:
    def test_put_and_get_in_one_roundtrip(self, rig):
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, {"v": 7})
        batch.get(rig.chans["a"], rig.inp["a"], 0)
        got = batch.commit(timeout=5.0)
        assert got == [(0, {"v": 7})]
        assert rig.broker.op_counts["step"] == 1
        assert "put" not in rig.broker.op_counts
        assert "get" not in rig.broker.op_counts
        stats = rig.broker.stats()["a"]
        assert (stats["puts"], stats["gets"]) == (1, 1)

    def test_results_in_queue_order_across_channels(self, rig):
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, "va")
        batch.put(rig.chans["b"], rig.out["b"], 0, "vb")
        batch.get(rig.chans["b"], rig.inp["b"], 0)
        batch.get(rig.chans["a"], rig.inp["a"], 0)
        assert batch.commit(timeout=5.0) == [(0, "vb"), (0, "va")]

    def test_commit_clears_batch_for_reuse(self, rig):
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, "x")
        batch.commit(timeout=5.0)
        assert len(batch) == 0
        assert batch.commit(timeout=5.0) == []  # empty batch: no round trip
        assert rig.broker.op_counts["step"] == 1

    def test_wildcard_get_rejected(self, rig):
        from repro.stm.channel import NEWEST

        batch = rig.batch()
        with pytest.raises(STMError, match="exact timestamps"):
            batch.get(rig.chans["a"], rig.inp["a"], NEWEST)

    def test_parked_step_completes_on_later_put(self, rig, wait_until):
        got = []

        def committer():
            batch = rig.batch()
            batch.get(rig.chans["a"], rig.inp["a"], 0)
            got.extend(batch.commit(timeout=5.0))

        t = threading.Thread(target=committer)
        t.start()
        wait_until(lambda: rig.broker._steps)
        assert not got
        rig.chans["a"].put(rig.out["a"], 0, "late")
        t.join(timeout=5.0)
        assert got == [(0, "late")]

    def test_consumes_apply_while_step_is_parked(self, rig, wait_until):
        """The deadlock-freedom guarantee: a parked step's consumes have
        already landed, releasing items (and capacity) to other tasks."""
        rig.chans["a"].put(rig.out["a"], 0, "x")
        rig.chans["a"].get(rig.inp["a"], 0, timeout=5.0)

        def committer():
            batch = rig.batch()
            batch.consume(rig.chans["a"], rig.inp["a"], 0)
            batch.get(rig.chans["b"], rig.inp["b"], 0)  # parks: b is empty
            batch.commit(timeout=5.0)

        t = threading.Thread(target=committer)
        t.start()
        wait_until(lambda: rig.broker._steps)
        # Step is parked on the get, but the consume already happened.
        assert rig.broker.stats()["a"]["consumed"] == 1
        rig.chans["b"].put(rig.out["b"], 0, "unblock")
        t.join(timeout=5.0)

    def test_self_unblocking_put_after_consume(self, bounded):
        """One step both frees capacity-1 channel ``a`` (consume ts=0)
        and refills it (put ts=1) — a frame step's pattern."""
        bounded.chans["a"].put(bounded.out["a"], 0, "v0")
        bounded.chans["a"].get(bounded.inp["a"], 0, timeout=5.0)
        batch = bounded.batch()
        batch.consume(bounded.chans["a"], bounded.inp["a"], 0)
        batch.put(bounded.chans["a"], bounded.out["a"], 1, "v1")
        batch.get(bounded.chans["a"], bounded.inp["a"], 1)
        assert batch.commit(timeout=5.0) == [(1, "v1")]

    def test_step_timeout(self, rig):
        batch = rig.batch()
        batch.get(rig.chans["a"], rig.inp["a"], 0)
        with pytest.raises(TimeoutError):
            batch.commit(timeout=0.05)
        assert not rig.broker._steps  # expired step was reaped

    def test_step_against_poisoned_channel(self, rig):
        rig.broker.poison_all()
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, "x")
        with pytest.raises(ChannelPoisoned):
            batch.commit(timeout=5.0)

    def test_poison_wakes_parked_step(self, rig, wait_until):
        seen = []

        def committer():
            batch = rig.batch()
            batch.get(rig.chans["a"], rig.inp["a"], 0)
            try:
                batch.commit(timeout=5.0)
            except ChannelPoisoned:
                seen.append("poisoned")

        t = threading.Thread(target=committer)
        t.start()
        wait_until(lambda: rig.broker._steps)
        rig.broker.poison_all()
        t.join(timeout=5.0)
        assert seen == ["poisoned"]

    def test_duplicate_put_raises_without_replay(self, rig):
        rig.chans["a"].put(rig.out["a"], 0, "x")
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, "again")
        with pytest.raises(DuplicateTimestamp):
            batch.commit(timeout=5.0)

    def test_duplicate_put_idempotent_with_replay(self, rig):
        """Respawned workers replay their frame steps; puts must land
        exactly once."""
        rig.chans["a"].put(rig.out["a"], 0, "x")
        batch = rig.batch(replay=True)
        batch.put(rig.chans["a"], rig.out["a"], 0, "x")
        batch.get(rig.chans["a"], rig.inp["a"], 0)
        assert batch.commit(timeout=5.0) == [(0, "x")]
        assert rig.broker.stats()["a"]["puts"] == 1

    def test_get_of_consumed_ts_is_error(self, rig):
        # Second input conn keeps the item alive past cons's consume, so
        # the step's get sees "consumed" (an error), not "missing".
        rig.broker.attach_input("a", "other")
        rig.chans["a"].put(rig.out["a"], 0, "x")
        rig.chans["a"].get(rig.inp["a"], 0, timeout=5.0)
        rig.chans["a"].consume(rig.inp["a"], 0)
        batch = rig.batch()
        batch.get(rig.chans["a"], rig.inp["a"], 0)
        with pytest.raises(ItemConsumed):
            batch.commit(timeout=1.0)

    def test_freed_feed_recycles_shm_segments(self, rig):
        """Step replies carry the collected-timestamp feed, so producer
        rings reuse segments exactly like per-op put replies."""
        arr = np.zeros((64, 64))
        for ts in range(6):
            batch = rig.batch()
            if ts > 0:
                batch.consume(rig.chans["a"], rig.inp["a"], ts - 1)
            batch.put(rig.chans["a"], rig.out["a"], ts, arr)
            batch.get(rig.chans["a"], rig.inp["a"], ts)
            batch.commit(timeout=5.0)
        assert rig.chans["a"]._ring.recycled >= 3
        assert rig.chans["a"]._ring.created <= 2

    def test_blocking_channel_calls_are_one_step_each(self, rig):
        """put / get / consume on the proxy speak the same one op."""
        chan = rig.chans["a"]
        chan.put(rig.out["a"], 0, "x", timeout=5.0)
        assert chan.get(rig.inp["a"], 0, timeout=5.0) == (0, "x")
        chan.consume(rig.inp["a"], 0)
        assert rig.broker.op_counts == {"step": 3}
        assert rig.broker.roundtrips() == 3

    def test_unknown_op_gets_error_reply(self, rig):
        """The retired per-op protocol is refused, not left hanging."""
        status, data = rig.link.call(
            "put", ("a", rig.out["a"], 0, ("pickle", b""), 0), 5.0)
        assert status == "error"
        with pytest.raises(STMError, match="unknown op 'put'"):
            raise pickle.loads(data)
        assert rig.broker.stats()["a"]["puts"] == 0

    def test_roundtrips_counts_queue_ops_only(self, rig):
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, "x")
        batch.get(rig.chans["a"], rig.inp["a"], 0)
        batch.commit(timeout=5.0)
        rig.broker.local_get_blocking("a", rig.broker.attach_input("a", "lo"),
                                      0, timeout=5.0)
        assert rig.broker.roundtrips() == 1
        assert rig.broker.op_counts["local_get"] == 1


class TestLocalCollectorPath:
    def test_local_get_blocking_woken_by_step_put(self, rig):
        conn = rig.broker.attach_input("a", "collector")
        got = []

        def collect():
            got.append(rig.broker.local_get_blocking("a", conn, 0,
                                                     timeout=5.0))

        t = threading.Thread(target=collect)
        t.start()
        batch = rig.batch()
        batch.put(rig.chans["a"], rig.out["a"], 0, "via-step")
        batch.commit(timeout=5.0)
        t.join(timeout=5.0)
        assert got == [(0, "via-step")]
        rig.broker.local_consume("a", conn, 0)
        assert rig.broker.stats()["a"]["consumed"] == 1

    def test_local_get_timeout(self, rig):
        conn = rig.broker.attach_input("a", "collector")
        with pytest.raises(TimeoutError):
            rig.broker.local_get_blocking("a", conn, 0, timeout=0.05)

    def test_local_get_poisoned(self, rig):
        conn = rig.broker.attach_input("a", "collector")
        rig.broker.poison_all()
        with pytest.raises(ChannelPoisoned):
            rig.broker.local_get_blocking("a", conn, 0, timeout=5.0)


class TestShmThreshold:
    def test_threshold_selects_transport(self):
        assert resolve_shm_threshold() == SHM_THRESHOLD_BYTES == 4096
        ring = ShmRing()
        try:
            at = np.zeros(SHM_THRESHOLD_BYTES, dtype=np.uint8)
            assert encode_value(at, ring, 0)[0] == "shm"
            ring.release([0])
            below = np.zeros(SHM_THRESHOLD_BYTES - 1, dtype=np.uint8)
            assert encode_value(below, ring, 1)[0] == "pickle"
        finally:
            ring.close()
