"""Unit tests for the STM channel API (Figures 7-8)."""

from __future__ import annotations

import pytest

from repro.errors import (
    ChannelClosed,
    ConnectionError_,
    DuplicateTimestamp,
    ItemConsumed,
    ItemUnavailable,
    STMError,
)
from repro.stm.channel import NEWEST, NEWEST_UNSEEN, OLDEST, STMChannel


@pytest.fixture
def chan():
    return STMChannel("c")


@pytest.fixture
def wired(chan):
    out = chan.attach_output("producer")
    inp = chan.attach_input("consumer")
    return chan, out, inp


class TestPut:
    def test_out_of_order_puts_allowed(self, wired):
        chan, out, inp = wired
        chan.put(out, 5, "five")
        chan.put(out, 2, "two")   # "items can be put in any order"
        assert chan.timestamps() == [2, 5]

    def test_duplicate_timestamp_rejected(self, wired):
        chan, out, _ = wired
        chan.put(out, 1, "a")
        with pytest.raises(DuplicateTimestamp):
            chan.put(out, 1, "b")

    def test_put_over_input_connection_rejected(self, wired):
        chan, _, inp = wired
        with pytest.raises(ConnectionError_):
            chan.put(inp, 0, "x")

    def test_put_after_close_rejected(self, wired):
        chan, out, _ = wired
        chan.close()
        with pytest.raises(ChannelClosed):
            chan.put(out, 0, "x")

    def test_put_beyond_capacity_rejected(self):
        chan = STMChannel("c", capacity=1)
        out = chan.attach_output("p")
        chan.put(out, 0, "a")
        assert chan.is_full
        with pytest.raises(STMError):
            chan.put(out, 1, "b")

    def test_non_integer_timestamp_rejected(self, wired):
        chan, out, _ = wired
        with pytest.raises(STMError):
            chan.put(out, 1.5, "x")  # type: ignore[arg-type]


class TestGet:
    def test_exact(self, wired):
        chan, out, inp = wired
        chan.put(out, 3, "v")
        assert chan.get(inp, 3) == (3, "v")

    def test_newest_oldest(self, wired):
        chan, out, inp = wired
        for ts in (1, 5, 3):
            chan.put(out, ts, ts * 10)
        assert chan.get(inp, NEWEST) == (5, 50)
        assert chan.get(inp, OLDEST) == (1, 10)

    def test_newest_unseen_skips_gotten(self, wired):
        chan, out, inp = wired
        chan.put(out, 1, "a")
        chan.put(out, 2, "b")
        assert chan.get(inp, NEWEST_UNSEEN) == (2, "b")
        # 2 has now been gotten over a connection; 1 is the newest unseen.
        assert chan.get(inp, NEWEST_UNSEEN) == (1, "a")
        with pytest.raises(ItemUnavailable):
            chan.get(inp, NEWEST_UNSEEN)

    def test_miss_reports_neighbours(self, wired):
        chan, out, inp = wired
        chan.put(out, 1, "a")
        chan.put(out, 5, "b")
        with pytest.raises(ItemUnavailable) as exc:
            chan.get(inp, 3)
        assert exc.value.below == 1 and exc.value.above == 5

    def test_miss_on_empty_channel(self, wired):
        chan, _, inp = wired
        with pytest.raises(ItemUnavailable) as exc:
            chan.get(inp, NEWEST)
        assert exc.value.below is None and exc.value.above is None

    def test_get_over_output_connection_rejected(self, wired):
        chan, out, _ = wired
        with pytest.raises(ConnectionError_):
            chan.get(out, NEWEST)

    def test_get_does_not_remove(self, wired):
        chan, out, inp = wired
        chan.put(out, 0, "x")
        chan.get(inp, 0)
        assert chan.holds(0)

    def test_get_consumed_item_rejected(self, wired):
        chan, out, inp = wired
        chan.put(out, 0, "x")
        chan.consume(inp, 0)
        with pytest.raises(ItemConsumed):
            chan.get(inp, 0)

    def test_last_gotten_tracked(self, wired):
        chan, out, inp = wired
        chan.put(out, 7, "x")
        chan.get(inp, NEWEST)
        assert inp.last_gotten == 7

    def test_detached_connection_rejected(self, wired):
        chan, out, inp = wired
        chan.detach(inp)
        with pytest.raises(ConnectionError_):
            chan.get(inp, NEWEST)


class TestConsume:
    def test_consume_marks_older_items_too(self, wired):
        chan, out, inp = wired
        for ts in range(5):
            chan.put(out, ts, ts)
        chan.consume(inp, 3)
        collectible = chan.collectible()
        assert collectible == [0, 1, 2, 3]

    def test_virtual_time_advances_monotonically(self, wired):
        chan, out, inp = wired
        chan.put(out, 5, "x")
        chan.consume(inp, 5)
        assert inp.virtual_time == 6
        chan.consume(inp, 2)  # earlier consume cannot move VT back
        assert inp.virtual_time == 6

    def test_consume_of_absent_timestamp_is_allowed(self, wired):
        chan, out, inp = wired
        chan.put(out, 4, "x")
        chan.consume(inp, 10)   # declares everything <= 10 dead
        assert chan.collectible() == [4]


class TestNeighbours:
    def test_present_timestamp(self, wired):
        chan, out, _ = wired
        for ts in (1, 3, 5):
            chan.put(out, ts, None)
        assert chan.neighbours(3) == (1, 5)

    def test_absent_timestamp(self, wired):
        chan, out, _ = wired
        for ts in (1, 5):
            chan.put(out, ts, None)
        assert chan.neighbours(3) == (1, 5)
        assert chan.neighbours(0) == (None, 1)
        assert chan.neighbours(9) == (5, None)


class TestAccounting:
    def test_counters(self, wired):
        chan, out, inp = wired
        chan.put(out, 0, "x")
        chan.get(inp, 0)
        chan.consume(inp, 0)
        assert chan.total_puts == 1
        assert chan.total_gets == 1
        assert chan.total_consumed == 1

    def test_live_bytes(self, wired):
        chan, out, _ = wired
        chan.put(out, 0, "x", size=100)
        chan.put(out, 1, "y", size=50)
        assert chan.live_bytes() == 150

    def test_input_conn_ids(self, chan):
        i1 = chan.attach_input("a")
        chan.attach_output("b")
        i2 = chan.attach_input("c")
        assert chan.input_conn_ids() == {i1.conn_id, i2.conn_id}


class TestTypedRefusals:
    """A timestamp is a non-negative ``int``, never a ``bool``, and an item
    size is non-negative: put / get / consume refuse anything else with
    ``STMError`` and change nothing.  (A negative timestamp used to be born
    consumed for every input at virtual time 0, and ``True`` aliased
    timestamp 1.)"""

    BAD_TIMESTAMPS = [-1, -7, True, False]

    @staticmethod
    def snapshot(chan, *conns):
        return (chan.timestamps(), chan.collectible(), chan.live_bytes(), chan.stats(),
                [(c.virtual_time, c.last_gotten) for c in conns])

    @pytest.mark.parametrize("ts", BAD_TIMESTAMPS)
    def test_put_refuses_negative_and_bool_timestamps(self, wired, ts):
        chan, out, inp = wired
        chan.put(out, 1, "one")
        before = self.snapshot(chan, out, inp)
        with pytest.raises(STMError, match="non-negative integer timestamp"):
            chan.put(out, ts, "x")
        assert self.snapshot(chan, out, inp) == before
        assert chan.get(inp, 1) == (1, "one")  # True did not alias ts 1

    @pytest.mark.parametrize("ts", BAD_TIMESTAMPS)
    def test_get_refuses_negative_and_bool_timestamps(self, wired, ts):
        chan, out, inp = wired
        chan.put(out, 0, "zero")
        chan.put(out, 1, "one")
        before = self.snapshot(chan, out, inp)
        with pytest.raises(STMError, match="non-negative integer timestamp"):
            chan.get(inp, ts)
        assert self.snapshot(chan, out, inp) == before

    @pytest.mark.parametrize("ts", BAD_TIMESTAMPS)
    def test_consume_refuses_negative_and_bool_timestamps(self, wired, ts):
        chan, out, inp = wired
        chan.put(out, 0, "zero")
        before = self.snapshot(chan, out, inp)
        with pytest.raises(STMError, match="non-negative integer timestamp"):
            chan.consume(inp, ts)
        assert self.snapshot(chan, out, inp) == before
        assert inp.virtual_time == 0

    def test_negative_timestamp_is_not_collected_behind_the_consumers(self, wired):
        chan, out, inp = wired
        with pytest.raises(STMError):
            chan.put(out, -1, "x")
        chan.consume(inp, 0)
        assert chan.stats()["collected"] == 0 and len(chan) == 0

    def test_negative_size_is_an_stm_error(self, wired):
        chan, out, inp = wired
        with pytest.raises(STMError, match="size"):
            chan.put(out, 0, "x", size=-1)
        assert len(chan) == 0 and chan.live_bytes() == 0 and chan.total_puts == 0

    def test_unknown_wildcard_refused_even_when_empty(self, wired):
        chan, _, inp = wired
        with pytest.raises(STMError, match="wildcard"):
            chan.get(inp, "newest")  # type: ignore[arg-type]

    def test_connection_of_another_channel_refused(self, wired):
        chan, out, inp = wired
        other = STMChannel("other")
        their_out, their_in = other.attach_output("p"), other.attach_input("q")
        chan.put(out, 0, "x")
        for op, conn, args in (("put", their_out, (1, "y")), ("get", their_in, (0,)),
                               ("consume", their_in, (0,))):
            with pytest.raises(ConnectionError_, match="not attached to 'c'"):
                getattr(chan, op)(conn, *args)
        assert their_in.virtual_time == 0 and chan.timestamps() == [0]
