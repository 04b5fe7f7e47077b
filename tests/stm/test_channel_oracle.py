"""The watermark channel against the per-item-set channel it replaced.

``channel_reference_oracle.py`` keeps the former ``Connection``, ``Item``,
``STMChannel``, ``GCStats`` and ``collect_channel`` verbatim.  Every test
here drives a live channel and an oracle channel with the same operations —
attach (late ones included), detach, put (duplicate, full, born consumed),
get (exact, ``NEWEST``, ``OLDEST``, ``NEWEST_UNSEEN``), consume (in and out
of order), collect, close — and requires the same return value or the same
exception type from both, then the same ``timestamps()``,
``collectible()``, ``live_bytes()``, ``stats()``, virtual times and
``GCStats`` fields after every step.

The one input the two may treat differently on purpose is a negative item
size: the oracle's ``Item`` raised a bare ``ValueError``, the live ``put``
raises ``STMError``.  Timestamps are non-negative ints throughout; the
refusal of negative and ``bool`` timestamps is in ``test_channel.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ItemUnavailable, STMError
from repro.stm.channel import NEWEST, NEWEST_UNSEEN, OLDEST, STMChannel
from repro.stm.gc import GCStats, collect_channel

from tests.stm import channel_reference_oracle as oracle

TS_MAX = 12
_ts = st.integers(0, TS_MAX)
_conn = st.integers(0, 7)  # an index into the attached-so-far list, mod its length

OPS = st.one_of(
    st.tuples(st.just("attach"), st.sampled_from(["in", "out"])),
    st.tuples(st.just("detach"), _conn),
    st.tuples(st.just("put"), _conn, _ts, st.integers(-1, 50)),
    st.tuples(st.just("get"), _conn, st.one_of(_ts, st.sampled_from(
        [NEWEST, OLDEST, NEWEST_UNSEEN]))),
    st.tuples(st.just("consume"), _conn, _ts),
    st.tuples(st.just("collect")),
    st.tuples(st.just("close")),
)


class Pair:
    """A live channel and an oracle channel, driven in lockstep."""

    def __init__(self, capacity, stats: bool) -> None:
        self.new = STMChannel("c", capacity=capacity)
        self.old = oracle.STMChannel("c", capacity=capacity)
        self.new_stats = GCStats() if stats else None
        self.old_stats = oracle.GCStats() if stats else None
        self.conns: list[tuple] = []  # (live connection, oracle connection)
        self.puts = 0

    def attach(self, kind: str) -> None:
        if kind == "in":
            self.conns.append((self.new.attach_input("t"), self.old.attach_input("t")))
        else:
            self.conns.append((self.new.attach_output("t"), self.old.attach_output("t")))

    def step(self, op: tuple) -> None:
        name, *args = op
        if name == "attach":
            self.attach(args[0])
            return
        new_args = old_args = args
        if name in ("detach", "put", "get", "consume"):
            if not self.conns:
                return
            new_conn, old_conn = self.conns[args[0] % len(self.conns)]
            rest = args[1:]
            if name == "put":
                self.puts += 1
                rest = [rest[0], ("v", self.puts), rest[1], float(self.puts)]
            new_args, old_args = [new_conn, *rest], [old_conn, *rest]
        got_new = run(self.new, self.new_stats, name, new_args)
        got_old = run(self.old, self.old_stats, name, old_args)
        if name == "put" and new_args[3] < 0 and got_old[0] is ValueError:
            assert got_new[0] is STMError, (op, got_new)
        else:
            assert got_new == got_old, (op, got_new, got_old)
        self.check()

    def check(self) -> None:
        new, old = self.new, self.old
        assert new.timestamps() == old.timestamps()
        assert new.collectible() == old.collectible()
        assert new.live_bytes() == old.live_bytes()
        assert new.stats() == old.stats()
        assert len(new) == len(old) and new.is_full == old.is_full
        assert [n.virtual_time for n, _ in self.conns] == [
            o.virtual_time for _, o in self.conns]
        assert [n.last_gotten for n, _ in self.conns] == [
            o.last_gotten for _, o in self.conns]
        assert [n.attached for n, _ in self.conns] == [o.attached for _, o in self.conns]
        if self.new_stats is not None:
            assert dataclasses.asdict(self.new_stats) == dataclasses.asdict(self.old_stats)


def run(chan, stats, op: str, args) -> tuple:
    """One operation's outcome: ``("ok", value)`` or the exception's type
    (with the neighbours a miss reports)."""
    try:
        if op == "collect":
            collect = (oracle.collect_channel if isinstance(chan, oracle.STMChannel)
                       else collect_channel)
            out = collect(chan, stats)
        elif op == "close":
            out = chan.close()
        elif op == "detach":
            out = chan.detach(*args)
        elif op == "put":
            conn, ts, value, size, time = args
            item = chan.put(conn, ts, value, size=size, time=time)
            out = (item.timestamp, item.value, item.size, item.put_time)
        else:
            out = getattr(chan, op)(*args)
    except ItemUnavailable as exc:
        return ItemUnavailable, (exc.timestamp, exc.below, exc.above)
    except Exception as exc:  # the type is the outcome
        return type(exc), None
    return "ok", out


@settings(max_examples=400, deadline=None)
@given(
    capacity=st.sampled_from([None, 1, 3, 6]),
    stats=st.booleans(),
    ops=st.lists(OPS, max_size=80),
)
def test_same_outcomes_as_the_set_channel(capacity, stats, ops):
    pair = Pair(capacity, stats)
    pair.attach("out")
    pair.attach("in")
    for op in ops:
        pair.step(op)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.one_of(
        st.tuples(st.just("put"), st.integers(0, 0), _ts, st.integers(0, 9)),
        st.tuples(st.just("get"), st.integers(1, 3), st.one_of(
            _ts, st.sampled_from([NEWEST, OLDEST, NEWEST_UNSEEN]))),
        st.tuples(st.just("consume"), st.integers(1, 3), _ts),
        st.tuples(st.just("collect")),
    ), max_size=120),
    late=st.integers(0, 120),
    gone=st.integers(0, 120),
)
def test_three_consumers_late_attach_and_detach(ops, late, gone):
    """One producer, two inputs from the start, a third attached after
    ``late`` steps and the second detached after ``gone``: every step lands
    on a connection that exists, so the watermark and the unseen wildcard
    are exercised far more often than in the fully random run."""
    pair = Pair(None, True)
    pair.attach("out")
    pair.attach("in")
    pair.attach("in")
    for i, op in enumerate(ops):
        if i == late:
            pair.attach("in")
        if i == gone:
            pair.step(("detach", 2))
        if op[0] in ("get", "consume") and op[1] >= len(pair.conns):
            continue
        pair.step(op)


@pytest.mark.parametrize("detach_first", [False, True])
def test_born_consumed_and_unseen_after_a_consumer_detaches(detach_first):
    """The case the seen flag exists for: items a detached consumer had
    consumed stay seen; an item put after it left is unseen."""
    pair = Pair(None, True)
    for kind in ("out", "in", "in"):
        pair.attach(kind)
    for ts in (0, 1, 2):
        pair.step(("put", 0, ts, 1))
    pair.step(("consume", 2, 1))
    pair.step(("get", 1, NEWEST_UNSEEN))  # 2: at the virtual time, not below it
    if detach_first:
        pair.step(("detach", 2))
    pair.step(("put", 0, 3, 1))
    pair.step(("put", 0, 4, 1) if detach_first else ("consume", 2, 5))
    for ts in (NEWEST_UNSEEN, NEWEST, OLDEST, 0, 1, 3):
        pair.step(("get", 1, ts))
        pair.step(("get", 1, NEWEST_UNSEEN))
