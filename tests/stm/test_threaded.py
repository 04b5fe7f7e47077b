"""Unit tests for the thread-safe blocking STM channel."""

from __future__ import annotations

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
