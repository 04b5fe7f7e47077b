"""Unit tests for STM garbage collection."""

from __future__ import annotations

from repro.stm.channel import STMChannel
from repro.stm.gc import GCStats, collect_channel


class TestCollect:
    def test_item_lives_until_all_inputs_consume(self):
        chan = STMChannel("c")
        out = chan.attach_output("p")
        a = chan.attach_input("a")
        b = chan.attach_input("b")
        chan.put(out, 0, "x", size=10)
        chan.consume(a, 0)
        assert collect_channel(chan) == 0
        chan.consume(b, 0)
        assert collect_channel(chan) == 1
        assert len(chan) == 0

    def test_no_inputs_means_nothing_collectible(self):
        chan = STMChannel("c")
        out = chan.attach_output("p")
        chan.put(out, 0, "x")
        assert collect_channel(chan) == 0

    def test_detach_releases_obligation(self):
        chan = STMChannel("c")
        out = chan.attach_output("p")
        a = chan.attach_input("a")
        b = chan.attach_input("b")
        chan.put(out, 0, "x")
        chan.consume(a, 0)
        chan.detach(b)  # b's obligation disappears with it
        assert collect_channel(chan) == 1

    def test_late_attached_input_blocks_collection_until_it_consumes(self):
        """The input index is kept by attach / detach, not frozen at the
        first put: a connection attached after items exist owes them too."""
        chan = STMChannel("c")
        out = chan.attach_output("p")
        early = chan.attach_input("early")
        for ts in range(3):
            chan.put(out, ts, ts, size=10)
        chan.consume(early, 2)
        late = chan.attach_input("late")
        assert chan.collectible() == [] and collect_channel(chan) == 0
        chan.consume(late, 0)
        assert chan.collectible() == [0]
        chan.consume(late, 2)
        assert collect_channel(chan) == 3 and chan.live_bytes() == 0

    def test_detached_input_leaves_the_index(self):
        chan = STMChannel("c")
        out = chan.attach_output("p")
        a, b = chan.attach_input("a"), chan.attach_input("b")
        chan.consume(b, 5)  # b is past ts 0..5
        chan.detach(b)
        assert chan.input_conn_ids() == {a.conn_id}
        item = chan.put(out, 3, "x")  # not born consumed for the detached b
        assert item.consumed_by == set()
        chan.detach(out)  # an output connection was never in the index
        assert chan.input_conn_ids() == {a.conn_id}

    def test_skipped_frames_freed_by_implicit_consume(self):
        """A consumer that jumps to the newest frame frees the skipped ones."""
        chan = STMChannel("c")
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        for ts in range(10):
            chan.put(out, ts, ts)
        chan.get(inp, 9)
        chan.consume(inp, 9)
        assert collect_channel(chan) == 10

    def test_stats_track_high_water_and_bytes(self):
        chan = STMChannel("c")
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        stats = GCStats()
        for ts in range(4):
            chan.put(out, ts, ts, size=100)
        chan.consume(inp, 3)
        collected = collect_channel(chan, stats)
        assert collected == 4
        assert stats.high_water_items == 4
        assert stats.high_water_bytes == 400
        assert stats.bytes_freed == 400
        assert stats.calls == 1
