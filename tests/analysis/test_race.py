"""Pass 4 (dynamic race/deadlock detection): vector clocks end to end."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import RaceChecker
from repro.graph.builders import chain_graph, fork_join_graph
from repro.runtime.threaded import ThreadedRuntime
from repro.state import State
from repro.stm.threaded import ThreadedChannel


def run_threads(*bodies):
    threads = [
        threading.Thread(target=b, name=f"worker-{i}") for i, b in enumerate(bodies)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestTrackedLock:
    def test_lock_protocol(self):
        lk = RaceChecker().tracked_lock("lock:t")
        assert not lk.locked()
        with lk:
            assert lk.locked()
        assert not lk.locked()
        assert lk.acquire(blocking=False) is True
        lk.release()

    def test_backs_a_condition(self):
        cond = threading.Condition(RaceChecker().tracked_lock("lock:cond"))
        with cond:
            cond.notify_all()


class TestDataRaces:
    def test_r001_unsynchronized_writes(self):
        checker = RaceChecker()
        run_threads(
            lambda: checker.on_write("state:shared"),
            lambda: checker.on_write("state:shared"),
        )
        (f,) = checker.report().findings
        assert f.rule == "R001" and "state:shared" in f.location

    def test_lock_protected_writes_do_not_race(self):
        checker = RaceChecker()
        lk = checker.tracked_lock("lock:guard")

        def body():
            for _ in range(50):
                with lk:
                    checker.on_write("state:shared")

        run_threads(body, body)
        assert checker.race_count == 0

    def test_rogue_channel_write_flagged(self):
        """Deliberate channel mutation outside the channel lock is a race."""
        checker = RaceChecker()
        chan = ThreadedChannel("frames", analysis=checker)
        out = chan.attach_output("producer")

        def producer():
            chan.put(out, 0, "item")

        def rogue():
            checker.on_write("channel:frames")  # mutated without the lock

        run_threads(producer, rogue)
        report = checker.report()
        assert any(
            f.rule == "R001" and f.location == "channel:frames" for f in report
        ), report.summary()

    def test_locked_channel_traffic_does_not_race(self):
        checker = RaceChecker()
        chan = ThreadedChannel("frames", analysis=checker)
        out = chan.attach_output("producer")
        inn = chan.attach_input("consumer")

        def producer():
            for ts in range(20):
                chan.put(out, ts, ts)

        def consumer():
            for ts in range(20):
                chan.get(inn, ts, timeout=5.0)
                chan.consume(inn, ts)

        run_threads(producer, consumer)
        assert checker.race_count == 0

    def test_put_get_message_edge_orders_unlocked_state(self):
        # The producer's write to plain shared state is published with the
        # put; the consumer joins it on get, so its later read is ordered.
        checker = RaceChecker()
        chan = ThreadedChannel("c", analysis=checker)
        out = chan.attach_output("p")
        inn = chan.attach_input("q")

        def producer():
            checker.on_write("state:model")
            chan.put(out, 0, "v")

        def consumer():
            chan.get(inn, 0, timeout=5.0)
            checker.on_read("state:model")

        run_threads(producer, consumer)
        assert checker.race_count == 0

    def test_read_without_message_edge_races(self):
        checker = RaceChecker()
        run_threads(
            lambda: checker.on_write("state:model"),
            lambda: checker.on_read("state:model"),
        )
        assert checker.race_count == 1

    def test_fork_adopt_orders_thread_lifecycle(self):
        checker = RaceChecker()
        checker.on_write("state:init")
        token = checker.fork()
        end = {}

        def child():
            checker.adopt(token)
            checker.on_read("state:init")  # ordered by the fork token
            checker.on_write("state:out")
            end["token"] = checker.fork()

        th = threading.Thread(target=child)
        th.start()
        th.join()
        checker.adopt(end["token"])
        checker.on_read("state:out")  # ordered by the join token
        assert checker.race_count == 0

    def test_duplicate_races_dedup(self):
        checker = RaceChecker()

        def body():
            for _ in range(10):
                checker.on_write("state:shared")

        run_threads(body, body)
        assert len([f for f in checker.report() if f.rule == "R001"]) == 1


class TestLockInversion:
    def test_r002_inversion_cycle(self):
        checker = RaceChecker()
        la, lb = checker.tracked_lock("lock:A"), checker.tracked_lock("lock:B")

        def ab():
            with la:
                with lb:
                    pass

        def ba():
            with lb:
                with la:
                    pass

        # Sequential execution still records the conflicting orders.
        for body in (ab, ba):
            th = threading.Thread(target=body)
            th.start()
            th.join()
        (f,) = checker.report().findings
        assert f.rule == "R002"
        assert "lock:A" in f.location and "lock:B" in f.location

    def test_consistent_order_is_clean(self):
        checker = RaceChecker()
        la, lb = checker.tracked_lock("lock:A"), checker.tracked_lock("lock:B")

        def ab():
            with la:
                with lb:
                    pass

        run_threads(ab, ab)
        assert not [f for f in checker.report() if f.rule == "R002"]


class TestRuntimeIntegration:
    def test_clean_chain_run_reports_zero_findings(self):
        checker = RaceChecker()
        rt = ThreadedRuntime(
            chain_graph([0.0, 0.0, 0.0]), State(n_models=1), analysis=checker
        )
        result = rt.run(timestamps=6)
        assert result.meta["wall_time"] >= 0.0
        report = checker.report()
        assert checker.race_count == 0 and not report.findings, report.summary()

    def test_clean_fork_join_run_reports_zero_findings(self):
        # Genuinely concurrent branches: the put/get message edges are the
        # only synchronization, and they are enough.
        checker = RaceChecker()
        rt = ThreadedRuntime(
            fork_join_graph(0.0, [0.0, 0.0, 0.0], 0.0),
            State(n_models=1),
            analysis=checker,
        )
        rt.run(timestamps=5)
        report = checker.report()
        assert checker.race_count == 0 and not report.findings, report.summary()

    def test_clean_tracker_run_reports_zero_findings(self):
        pytest.importorskip("numpy")
        from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
        from repro.apps.tracker.kernels import VideoSource

        graph, statics = attach_kernels(build_tracker_graph(), VideoSource(n_targets=2))
        checker = RaceChecker()
        rt = ThreadedRuntime(
            graph, State(n_models=2), static_inputs=statics, analysis=checker
        )
        result = rt.run(timestamps=3)
        assert sorted(result.meta["outputs"]["model_locations"]) == [0, 1, 2]
        report = checker.report()
        assert checker.race_count == 0 and not report.findings, report.summary()
