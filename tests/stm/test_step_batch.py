"""Unit tests for the broker's one op, the step, and the shm threshold.

The ``step`` op carries one frame's consumes + puts + gets in a single
broker request (a one-entry step is a blocking channel call).  Its
contract: byte-identical STM effects to issuing the ops one by one (same
counters, same errors), with consumes applied immediately on first
dispatch — even while the step's puts or gets are parked — so batching
can never withhold capacity and deadlock a bounded pipeline.
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
    ShmRing,
    StepBatch,
    encode_value,
    resolve_shm_threshold,
)
from repro.stm.threaded import ChannelPoisoned


class BrokerRig:
    """A broker and its serving loop, :meth:`ChannelBroker.turn` — the loop
    the process runtime runs in the parent — on a thread of the test's.

    :meth:`batch` is a lane's batch on a pipe of its own; :meth:`poison`
    fails the run as a worker does, with a ``fatal`` report.  Everything
    else reads the broker while it waits for requests.
    """

    def __init__(self, channel_specs, wait_until):
        self.broker = ChannelBroker(channel_specs)
        self.wait_until = wait_until
        self.batches: list[StepBatch] = []
        self._control = self.broker.pipe(0)
        self._stop = threading.Event()
        self._server = threading.Thread(target=self._serve, name="broker-loop")
        self._server.start()

    def _serve(self):
        while not self._stop.is_set():
            self.broker.turn(0.005)

    def batch(self) -> StepBatch:
        batch = StepBatch(self.broker.pipe(1))
        self.batches.append(batch)
        return batch

    def poison(self):
        self._control.send(("fatal", "a lane raised"))
        self.wait_until(lambda: self.broker.errors)

    def close(self):
        self._stop.set()
        self._server.join(5.0)
        assert not self._server.is_alive()
        for batch in self.batches:
            batch.close()
        self.broker.close()


class Rig(BrokerRig):
    """A served broker over two channels ``a`` -> ``b``.

    ``put`` / ``get`` / ``consume`` are one-entry steps, each on a batch
    of its own.
    """

    def __init__(self, wait_until, capacity=None):
        super().__init__({"a": capacity, "b": capacity}, wait_until)
        self.out = {ch: self.broker.attach_output(ch, "prod")
                    for ch in ("a", "b")}
        self.inp = {ch: self.broker.attach_input(ch, "cons")
                    for ch in ("a", "b")}

    def put(self, ch, ts, value):
        batch = self.batch()
        batch.put(ch, self.out[ch], ts, value)
        batch.commit(timeout=5.0)

    def get(self, ch, ts):
        batch = self.batch()
        batch.get(ch, self.inp[ch], ts)
        return batch.commit(timeout=5.0)[0]

    def consume(self, ch, ts):
        batch = self.batch()
        batch.consume(ch, self.inp[ch], ts)
        batch.commit(timeout=5.0)


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


class TestStepSemantics:
    def test_put_and_get_in_one_roundtrip(self, rig):
        batch = rig.batch()
        batch.put("a", rig.out["a"], 0, {"v": 7})
        batch.get("a", rig.inp["a"], 0)
        got = batch.commit(timeout=5.0)
        assert got == [(0, {"v": 7})]
        assert rig.broker.op_counts["step"] == 1
        assert "put" not in rig.broker.op_counts
        assert "get" not in rig.broker.op_counts
        stats = rig.broker.stats()["a"]
        assert (stats["puts"], stats["gets"]) == (1, 1)

    def test_results_in_queue_order_across_channels(self, rig):
        batch = rig.batch()
        batch.put("a", rig.out["a"], 0, "va")
        batch.put("b", rig.out["b"], 0, "vb")
        batch.get("b", rig.inp["b"], 0)
        batch.get("a", rig.inp["a"], 0)
        assert batch.commit(timeout=5.0) == [(0, "vb"), (0, "va")]

    def test_commit_clears_batch_for_reuse(self, rig):
        batch = rig.batch()
        batch.put("a", rig.out["a"], 0, "x")
        batch.commit(timeout=5.0)
        assert len(batch) == 0
        assert batch.commit(timeout=5.0) == []  # empty batch: no round trip
        assert rig.broker.op_counts["step"] == 1

    def test_wildcard_get_rejected(self, rig):
        from repro.stm.channel import NEWEST

        batch = rig.batch()
        with pytest.raises(STMError, match="exact timestamps"):
            batch.get("a", rig.inp["a"], NEWEST)

    def test_parked_step_completes_on_later_put(self, rig, wait_until):
        got = []

        def committer():
            batch = rig.batch()
            batch.get("a", rig.inp["a"], 0)
            got.extend(batch.commit(timeout=5.0))

        t = threading.Thread(target=committer)
        t.start()
        wait_until(lambda: rig.broker._steps)
        assert not got
        rig.put("a", 0, "late")
        t.join(timeout=5.0)
        assert got == [(0, "late")]

    def test_consumes_apply_while_step_is_parked(self, rig, wait_until):
        """The deadlock-freedom guarantee: a parked step's consumes have
        already landed, releasing items (and capacity) to other tasks."""
        rig.put("a", 0, "x")
        rig.get("a", 0)

        def committer():
            batch = rig.batch()
            batch.consume("a", rig.inp["a"], 0)
            batch.get("b", rig.inp["b"], 0)  # parks: b is empty
            batch.commit(timeout=5.0)

        t = threading.Thread(target=committer)
        t.start()
        wait_until(lambda: rig.broker._steps)
        # Step is parked on the get, but the consume already happened.
        assert rig.broker.stats()["a"]["consumed"] == 1
        rig.put("b", 0, "unblock")
        t.join(timeout=5.0)

    def test_self_unblocking_put_after_consume(self, bounded):
        """One step both frees capacity-1 channel ``a`` (consume ts=0)
        and refills it (put ts=1) — a frame step's pattern."""
        bounded.put("a", 0, "v0")
        bounded.get("a", 0)
        batch = bounded.batch()
        batch.consume("a", bounded.inp["a"], 0)
        batch.put("a", bounded.out["a"], 1, "v1")
        batch.get("a", bounded.inp["a"], 1)
        assert batch.commit(timeout=5.0) == [(1, "v1")]

    def test_step_timeout(self, rig):
        batch = rig.batch()
        batch.get("a", rig.inp["a"], 0)
        with pytest.raises(TimeoutError):
            batch.commit(timeout=0.05)
        assert not rig.broker._steps  # expired step was reaped

    def test_step_against_poisoned_channel(self, rig):
        rig.poison()
        batch = rig.batch()
        batch.put("a", rig.out["a"], 0, "x")
        with pytest.raises(ChannelPoisoned):
            batch.commit(timeout=5.0)

    def test_poison_wakes_parked_step(self, rig, wait_until):
        seen = []

        def committer():
            batch = rig.batch()
            batch.get("a", rig.inp["a"], 0)
            try:
                batch.commit(timeout=5.0)
            except ChannelPoisoned:
                seen.append("poisoned")

        t = threading.Thread(target=committer)
        t.start()
        wait_until(lambda: rig.broker._steps)
        rig.poison()
        t.join(timeout=5.0)
        assert seen == ["poisoned"]

    def test_duplicate_put_raises(self, rig):
        rig.put("a", 0, "x")
        batch = rig.batch()
        batch.put("a", rig.out["a"], 0, "again")
        with pytest.raises(DuplicateTimestamp):
            batch.commit(timeout=5.0)

    def test_get_of_consumed_ts_is_error(self, rig):
        # Second input conn keeps the item alive past cons's consume, so
        # the step's get sees "consumed" (an error), not "missing".
        rig.broker.attach_input("a", "other")
        rig.put("a", 0, "x")
        rig.get("a", 0)
        rig.consume("a", 0)
        batch = rig.batch()
        batch.get("a", rig.inp["a"], 0)
        with pytest.raises(ItemConsumed):
            batch.commit(timeout=1.0)

    def test_freed_feed_recycles_shm_segments(self, rig):
        """Step replies carry the collected-timestamp feed, so the rings a
        thread's batch owns reuse segments frame after frame."""
        arr = np.zeros((64, 64))
        batch = rig.batch()
        for ts in range(6):
            if ts > 0:
                batch.consume("a", rig.inp["a"], ts - 1)
            batch.put("a", rig.out["a"], ts, arr)
            batch.get("a", rig.inp["a"], ts)
            batch.commit(timeout=5.0)
        ring = batch._rings[("a", rig.out["a"])]
        assert ring.recycled >= 3
        assert ring.created <= 2

    def test_blocking_channel_calls_are_one_step_each(self, rig):
        """put / get / consume, each a one-entry batch, speak the same one
        op."""
        rig.put("a", 0, "x")
        assert rig.get("a", 0) == (0, "x")
        rig.consume("a", 0)
        assert rig.broker.op_counts == {"step": 3}
        assert rig.broker.roundtrips() == 3

    def test_unknown_op_gets_error_reply(self, rig):
        """The retired per-op protocol is refused, not left hanging."""
        pipe = rig.broker.pipe(1)
        pipe.send(("put", ("a", rig.out["a"], 0, ("pickle", b""), 0)))
        assert pipe.poll(5.0)
        status, data = pipe.recv()
        assert status == "error"
        with pytest.raises(STMError, match="unknown op 'put'"):
            raise pickle.loads(data)
        assert rig.broker.stats()["a"]["puts"] == 0


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
