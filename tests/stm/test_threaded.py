"""Unit tests for the thread-safe blocking STM channel."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.stm.channel import NEWEST
from repro.stm.threaded import ChannelPoisoned, ThreadedChannel


class TestBlockingGet:
    def test_get_blocks_until_put(self, wait_until):
        chan = ThreadedChannel("c")
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        result = []

        def consumer():
            result.append(chan.get(inp, 0, timeout=5.0))

        t = threading.Thread(target=consumer)
        t.start()
        wait_until(lambda: chan.waiting_threads == 1)
        chan.put(out, 0, "hello")
        t.join(timeout=5.0)
        assert result == [(0, "hello")]

    def test_get_timeout(self):
        chan = ThreadedChannel("c")
        inp = chan.attach_input("q")
        with pytest.raises(TimeoutError):
            chan.get(inp, 0, timeout=0.05)

    def test_try_get(self):
        chan = ThreadedChannel("c")
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        assert chan.try_get(inp, NEWEST) is None
        chan.put(out, 3, "x")
        assert chan.try_get(inp, NEWEST) == (3, "x")


class TestBlockingPut:
    def test_put_blocks_at_capacity(self, wait_until):
        chan = ThreadedChannel("c", capacity=1)
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        chan.put(out, 0, "a")
        unblocked = []

        def producer():
            chan.put(out, 1, "b", timeout=5.0)
            unblocked.append(True)

        t = threading.Thread(target=producer)
        t.start()
        wait_until(lambda: chan.waiting_threads == 1)
        assert not unblocked
        chan.get(inp, 0)
        chan.consume(inp, 0)  # consume + GC frees the slot
        t.join(timeout=5.0)
        assert unblocked == [True]

    def test_put_timeout_when_full(self):
        chan = ThreadedChannel("c", capacity=1)
        out = chan.attach_output("p")
        chan.attach_input("q")  # an input conn exists, but never consumes
        chan.put(out, 0, "a")
        with pytest.raises(TimeoutError):
            chan.put(out, 1, "b", timeout=0.05)



class TestOneDeadline:
    """An operation's ``timeout`` is one deadline: wake-ups by changes that
    do not satisfy it (here a connection attached and detached every
    20 ms) must not restart it."""

    @pytest.mark.parametrize("op", ["get", "put"])
    def test_unrelated_changes_do_not_extend_the_timeout(self, op):
        chan = ThreadedChannel("c", capacity=1)
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        if op == "put":
            chan.put(out, 0, "a")  # full: the next put blocks
            blocked = lambda: chan.put(out, 1, "b", timeout=0.2)
        else:
            blocked = lambda: chan.get(inp, 10**6, timeout=0.2)
        waited = []

        def waiter():
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                blocked()
            waited.append(time.monotonic() - t0)

        t = threading.Thread(target=waiter)
        t.start()
        pace = threading.Event()  # never set: wait(dt) is the pacing
        stop = time.monotonic() + 1.5
        while t.is_alive() and time.monotonic() < stop:
            chan.detach(chan.attach_output("noise"))  # notifies every waiter
            pace.wait(0.02)
        t.join(timeout=5.0)
        assert waited and waited[0] < 1.0, waited


class CountingCondition(threading.Condition):
    """A condition that counts the waiters each notify wakes.

    ``notify`` runs under the channel lock and takes its waiters off the
    queue there, so the count is exact at the moment the notifying
    operation returns — no sleep, no race with the woken thread."""

    def __init__(self, lock) -> None:
        super().__init__(lock)
        self.woken = 0

    def notify(self, n: int = 1) -> None:
        self.woken += min(n, len(self._waiters))
        super().notify(n)


class TestWakeUps:
    """Each side waits on its own condition: a getter is woken by the put
    that may satisfy it, a putter by the consume that made room, and
    neither by a change that cannot let it proceed."""

    def test_a_blocked_get_is_woken_by_a_put_and_not_by_a_consume_freeing_nothing(
        self, wait_until
    ):
        chan = ThreadedChannel("c")
        out = chan.attach_output("p")
        getter, other = chan.attach_input("q"), chan.attach_input("r")
        landed = chan._landed = CountingCondition(chan._lock)
        room = chan._room = CountingCondition(chan._lock)
        chan.put(out, 0, "a")
        got = []
        t = threading.Thread(target=lambda: got.append(chan.get(getter, 1, timeout=5.0)))
        t.start()
        wait_until(lambda: chan.waiting_threads == 1)
        chan.consume(other, 0)  # ``getter`` still holds ts 0: nothing freed
        assert (landed.woken, room.woken) == (0, 0)
        assert chan.waiting_threads == 1 and len(chan) == 1
        chan.put(out, 1, "b")
        t.join(timeout=5.0)
        assert got == [(1, "b")] and (landed.woken, room.woken) == (1, 0)

    def test_a_blocked_put_is_woken_by_the_consume_that_frees_a_slot(self, wait_until):
        chan = ThreadedChannel("c", capacity=1)
        out = chan.attach_output("p")
        first, second = chan.attach_input("q"), chan.attach_input("r")
        landed = chan._landed = CountingCondition(chan._lock)
        room = chan._room = CountingCondition(chan._lock)
        chan.put(out, 0, "a")
        t = threading.Thread(target=lambda: chan.put(out, 1, "b", timeout=5.0))
        t.start()
        wait_until(lambda: chan.waiting_threads == 1)
        chan.consume(first, 0)  # ``second`` still holds ts 0: still full
        assert (landed.woken, room.woken) == (0, 0)
        chan.consume(second, 0)  # collected: room
        t.join(timeout=5.0)
        assert not t.is_alive() and chan.stats["puts"] == 2
        assert (landed.woken, room.woken) == (0, 1)


class TestPoison:
    def test_poison_wakes_blocked_getter(self, wait_until):
        chan = ThreadedChannel("c")
        inp = chan.attach_input("q")
        seen = []

        def consumer():
            try:
                chan.get(inp, 0, timeout=5.0)
            except ChannelPoisoned:
                seen.append("poisoned")

        t = threading.Thread(target=consumer)
        t.start()
        wait_until(lambda: chan.waiting_threads == 1)
        chan.poison()
        t.join(timeout=5.0)
        assert seen == ["poisoned"]

    def test_operations_after_poison_raise(self):
        chan = ThreadedChannel("c")
        out = chan.attach_output("p")
        chan.poison()
        with pytest.raises(ChannelPoisoned):
            chan.put(out, 0, "x")


class TestConcurrency:
    def test_pipeline_of_three_threads(self):
        """producer -> relay -> consumer, 50 items, in order."""
        a = ThreadedChannel("a")
        b = ThreadedChannel("b")
        pa = a.attach_output("prod")
        ra = a.attach_input("relay")
        rb = b.attach_output("relay")
        cb = b.attach_input("cons")
        N = 50
        received = []

        def producer():
            for ts in range(N):
                a.put(pa, ts, ts * 2, timeout=10.0)

        def relay():
            for ts in range(N):
                _, v = a.get(ra, ts, timeout=10.0)
                b.put(rb, ts, v + 1, timeout=10.0)
                a.consume(ra, ts)

        def consumer():
            for ts in range(N):
                _, v = b.get(cb, ts, timeout=10.0)
                received.append(v)
                b.consume(cb, ts)

        threads = [threading.Thread(target=f) for f in (producer, relay, consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert received == [ts * 2 + 1 for ts in range(N)]
        # Everything consumed -> everything collected.
        assert a.stats["collected"] == N
        assert b.stats["collected"] == N

    def test_fan_out_at_capacity_one_under_a_short_switch_interval(self):
        """One producer, three consumers of every item, capacity 1: all but
        the last consume of a timestamp free nothing and wake nobody, so a
        lost "room was made" wake-up would stall the producer into its
        timeout.  Four threads, switching every microsecond."""
        chan = ThreadedChannel("fan", capacity=1)
        out = chan.attach_output("prod")
        inputs = [chan.attach_input(f"cons{i}") for i in range(3)]
        N = 200
        received = {conn.task: [] for conn in inputs}

        def producer():
            for ts in range(N):
                chan.put(out, ts, ts, timeout=10.0)

        def consumer(conn):
            for ts in range(N):
                received[conn.task].append(chan.get(conn, ts, timeout=10.0)[1])
                chan.consume(conn, ts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=producer)] + [
                threading.Thread(target=consumer, args=(conn,)) for conn in inputs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got == list(range(N)) for got in received.values())
        assert chan.stats["collected"] == N and chan.waiting_threads == 0
