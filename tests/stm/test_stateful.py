"""Model-based stateful tests for the STM channel (hypothesis).

A reference model (plain dicts) shadows every operation on the real
channel; invariants are checked after each step:

* live timestamps match the model exactly;
* an item is collectible iff every attached input connection has consumed
  it (directly or via a later consume);
* counters never decrease; neighbour queries agree with the model;
* ``live_bytes()`` (a running total) equals the sizes of the live items
  summed afresh, however puts and collections interleave.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import DuplicateTimestamp, ItemConsumed, ItemUnavailable
from repro.stm.channel import NEWEST, STMChannel
from repro.stm.gc import collect_channel


class STMMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.chan = STMChannel("model-test")
        self.out = self.chan.attach_output("producer")
        self.inputs = [self.chan.attach_input(f"consumer{i}") for i in range(2)]
        # Model: ts -> set of conn indices that consumed it; per-conn
        # virtual time (everything below it is dead to that connection).
        self.model: dict[int, set[int]] = {}
        self.collected: set[int] = set()
        self.vt = [0, 0]

    @rule(ts=st.integers(0, 30), size=st.integers(0, 1000))
    def put(self, ts, size):
        if ts in self.model:
            try:
                self.chan.put(self.out, ts, ts, size=size)
                raise AssertionError("duplicate accepted")
            except DuplicateTimestamp:
                return
        self.chan.put(self.out, ts, ts, size=size)
        # A late put is born consumed for connections already past it.
        self.model[ts] = {c for c in (0, 1) if self.vt[c] > ts}

    @rule(ts=st.integers(0, 30), conn=st.integers(0, 1))
    def get_exact(self, ts, conn):
        try:
            got_ts, value = self.chan.get(self.inputs[conn], ts)
            assert got_ts == ts and value == ts
            assert ts in self.model and conn not in self.model[ts]
        except ItemUnavailable:
            assert ts not in self.model
        except ItemConsumed:
            assert conn in self.model[ts]

    @rule(conn=st.integers(0, 1))
    def get_newest(self, conn):
        visible = sorted(t for t, c in self.model.items() if conn not in c)
        try:
            got_ts, _ = self.chan.get(self.inputs[conn], NEWEST)
            assert visible and got_ts == visible[-1]
        except ItemUnavailable:
            assert not visible

    @rule(ts=st.integers(0, 30), conn=st.integers(0, 1))
    def consume(self, ts, conn):
        self.chan.consume(self.inputs[conn], ts)
        self.vt[conn] = max(self.vt[conn], ts + 1)
        for t in list(self.model):
            if t <= ts:
                self.model[t].add(conn)

    @rule()
    def gc(self):
        n = collect_channel(self.chan)
        dead = {t for t, consumers in self.model.items() if consumers == {0, 1}}
        assert n == len(dead)
        for t in dead:
            del self.model[t]
            self.collected.add(t)
        # A collected timestamp may legitimately be re-put later; the
        # model allows it by simply removing the entry.

    @invariant()
    def live_timestamps_match_model(self):
        assert self.chan.timestamps() == sorted(self.model)

    @invariant()
    def collectible_matches_model(self):
        expected = sorted(
            t for t, consumers in self.model.items() if consumers == {0, 1}
        )
        assert self.chan.collectible() == expected

    @invariant()
    def live_bytes_is_the_sum_of_live_sizes(self):
        chan = self.chan
        assert chan.live_bytes() == sum(chan._items[ts].size for ts in chan._order)

    @invariant()
    def neighbours_consistent(self):
        live = sorted(self.model)
        if live:
            mid = live[len(live) // 2]
            below, above = self.chan.neighbours(mid)
            idx = live.index(mid)
            assert below == (live[idx - 1] if idx > 0 else None)
            assert above == (live[idx + 1] if idx + 1 < len(live) else None)


STMMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestSTMStateful = STMMachine.TestCase
