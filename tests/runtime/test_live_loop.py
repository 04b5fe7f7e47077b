"""The one live frame loop, driven with a recording fake exchange."""

from __future__ import annotations

import time

import pytest

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    ChannelEnds,
    FrameStamps,
    Placed,
    check_static_inputs,
    check_timestamps,
    make_exchange,
    merge_completion,
    run_frames,
    terminal_channels,
)


def relay_graph() -> TaskGraph:
    g = TaskGraph("relay")
    g.add_channel(ChannelSpec("cfg", static=True))
    g.add_channel(ChannelSpec("a"))
    g.add_channel(ChannelSpec("b"))
    g.add_channel(ChannelSpec("c"))
    g.add_task(Task("src", cost=0.0, outputs=["a"]))
    g.add_task(Task("relay", cost=0.0, inputs=["cfg", "a"], outputs=["b", "c"]))
    g.validate()
    return g


class RecordingExchange:
    """Records ``(done timestamp, ts)`` and what each step handed over."""

    def __init__(self):
        self.calls = []
        self.handed_over = []

    def __call__(self, done, nxt, ts):
        self.calls.append((done and done[1], ts))
        if done is not None:
            self.handed_over.append(done[1:])
        return None if ts is None else {"a": ts}


def one_task(plan, kernel):
    """A lane of one placement: the task-per-thread loop."""
    return [Placed(plan, kernel)]


@pytest.fixture
def plan():
    return build_task_plans(relay_graph())["relay"]


class TestRunFrames:
    def test_one_exchange_per_frame_and_one_flush(self, plan):
        exchange = RecordingExchange()
        run_frames(one_task(plan, lambda ins, ts: {"b": ins["a"], "c": ts}),
                   exchange, 4)
        assert exchange.calls == [(None, 0), (0, 1), (1, 2), (2, 3), (3, None)]
        assert exchange.handed_over == [
            (ts, {"b": ts, "c": ts}) for ts in range(4)
        ]

    def test_nothing_to_do_means_no_exchange(self, plan):
        exchange = RecordingExchange()
        run_frames(one_task(plan, None), exchange, 0)
        assert exchange.calls == []

    def test_no_kernel_passes_inputs_to_every_output(self, plan):
        exchange = RecordingExchange()
        run_frames(one_task(plan, None), exchange, 1)
        assert exchange.handed_over == [(0, {"b": {"a": 0}, "c": {"a": 0}})]

    def test_missing_output_raises_before_next_exchange(self, plan):
        exchange = RecordingExchange()
        with pytest.raises(ReproError, match="no value for channel 'c'"):
            run_frames(one_task(plan, lambda ins, ts: {"b": 1}), exchange, 3)
        assert exchange.calls == [(None, 0)]

    def test_non_dict_result_raises_before_next_exchange(self, plan):
        exchange = RecordingExchange()
        with pytest.raises(ReproError, match="expected dict"):
            run_frames(one_task(plan, lambda ins, ts: 42), exchange, 3)
        assert exchange.calls == [(None, 0)]


def join_graph(windows=None) -> TaskGraph:
    """One task with a static input, two streaming inputs, two outputs."""
    g = TaskGraph("join")
    g.add_channel(ChannelSpec("cfg", static=True))
    for name in ("x", "y", "b", "c"):
        g.add_channel(ChannelSpec(name))
    g.add_task(Task("src", cost=0.0, outputs=["x", "y"]))
    g.add_task(Task("join", cost=0.0, inputs=["cfg", "x", "y"],
                    outputs=["b", "c"], windows=windows))
    g.validate()
    return g


class RecordingChannel:
    """Logs ``(op, channel, ts)``; a get returns ``"<channel>@<ts>"``."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def put(self, conn, ts, value, timeout=None):
        self.log.append(("put", self.name, ts, value))

    def consume(self, conn, ts):
        self.log.append(("consume", self.name, ts))

    def get(self, conn, ts, timeout=None):
        self.log.append(("get", self.name, ts))
        return ts, f"{self.name}@{ts}"


class RecordingBatch:
    """The batch surface over the same channels: a call is logged when it
    is queued, ``commit`` answers the queued gets — and, like
    ``StepBatch``, is a round trip only when something was queued."""

    def __init__(self, log):
        self.log = log
        self.queued = 0
        self.gets = []

    def put(self, chan, conn, ts, value):
        self.queued += 1
        chan.put(conn, ts, value)

    def consume(self, chan, conn, ts):
        self.queued += 1
        chan.consume(conn, ts)

    def get(self, chan, conn, ts):
        self.queued += 1
        self.gets.append(chan.get(conn, ts))

    def commit(self, timeout=None):
        if self.queued:
            self.log.append(("commit",))
        return self.gets


class LoggingStamps(FrameStamps):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def stamp(self, ts, landed):
        self.log.append(("stamp", ts))
        # the recording channels report no landing time
        super().stamp(ts, time.perf_counter())


class TestExchange:
    """The lifted step: the same calls wherever a channel lives."""

    LOCAL = {"x", "y", "b", "c"}

    def drive(self, local_names, plan_name="join", windows=None):
        """Log and per-frame inputs of a three-frame loop whose channels in
        ``local_names`` are local ends and the rest boundary ends."""
        plan = build_task_plans(join_graph(windows))[plan_name]
        log = []
        chans = {ch: RecordingChannel(ch, log)
                 for ch in plan.stream_inputs + plan.outputs}

        conns = dict.fromkeys(chans)

        def ends(keep):
            return ChannelEnds.of(
                plan, {ch: c for ch, c in chans.items() if keep(ch)},
                conns, conns)

        here = ends(lambda ch: ch in local_names)
        across = ends(lambda ch: ch not in local_names)
        stamps = LoggingStamps(log)
        built = []
        seen = []
        lane = [Placed(plan, lambda ins, ts: seen.append(ins) or {
            ch: (ch, ts) for ch in plan.outputs}, here, across, {"cfg": 7})]
        exchange = make_exchange(
            lane, 1.0, stamps, lambda: built.append(1) or RecordingBatch(log),
        )
        self.batches_built = built
        run_frames(lane, exchange, 3)
        return log, seen, stamps

    @staticmethod
    def steps(log):
        """The channel calls of each step, in order, commits dropped."""
        calls = [entry for entry in log if entry != ("commit",)]
        by_step = {}
        for entry in calls:
            # a step hands over frame ts (put / consume) and fetches ts + 1
            step = entry[2] + 1 if entry[0] != "get" else entry[2]
            by_step.setdefault(step, []).append(entry)
        return [by_step[k] for k in sorted(by_step)]

    def test_all_local_is_the_threaded_order(self):
        log, seen, _ = self.drive(self.LOCAL)
        assert ("commit",) not in log and not self.batches_built
        assert self.steps(log)[1] == [
            ("put", "b", 0, ("b", 0)), ("put", "c", 0, ("c", 0)),
            ("consume", "x", 0), ("consume", "y", 0),
            ("get", "x", 1), ("get", "y", 1),
        ]
        assert seen == [{"cfg": 7, "x": f"x@{ts}", "y": f"y@{ts}"}
                        for ts in range(3)]

    def test_all_boundary_makes_the_same_calls_one_commit_a_step(self):
        local_log, local_seen, _ = self.drive(self.LOCAL)
        log, seen, _ = self.drive(set())
        assert [e for e in log if e != ("commit",)] == local_log
        assert log.count(("commit",)) == 4  # three frames and the flush
        assert seen == local_seen

    def test_mixed_keeps_the_phases_and_commits_between_consume_and_get(self):
        local_log, local_seen, _ = self.drive(self.LOCAL)
        log, seen, _ = self.drive({"x", "b"})
        assert seen == local_seen
        for mixed, local in zip(self.steps(log), self.steps(local_log)):
            assert [e[0] for e in mixed] == [e[0] for e in local]
            assert sorted(mixed) == sorted(local)
        step = log[log.index(("put", "b", 0, ("b", 0))):
                   log.index(("get", "x", 1)) + 1]
        assert step == [
            ("put", "b", 0, ("b", 0)), ("put", "c", 0, ("c", 0)),
            ("consume", "x", 0), ("consume", "y", 0),
            ("get", "y", 1), ("commit",),   # boundary get rides the batch
            ("get", "x", 1),                # local get after the commit
        ]

    @pytest.mark.parametrize("local_names", [LOCAL, set(), {"y", "b"}, {"x"}],
                             ids=["local", "boundary", "x-boundary", "x-local"])
    def test_a_window_gets_its_frames_and_consumes_the_oldest(self, local_names):
        log, seen, _ = self.drive(local_names, windows={"x": 2})
        assert seen == [{"cfg": 7, "x": ("x@0",), "y": "y@0"},
                        {"cfg": 7, "x": ("x@0", "x@1"), "y": "y@1"},
                        {"cfg": 7, "x": ("x@1", "x@2"), "y": "y@2"}]
        assert [e for e in log if e[1:2] == ("x",)] == [
            ("get", "x", 0),
            ("get", "x", 0), ("get", "x", 1),
            ("consume", "x", 0), ("get", "x", 1), ("get", "x", 2),
            ("consume", "x", 1),
        ]
        assert [e for e in log if e[:2] == ("consume", "y")] == [
            ("consume", "y", ts) for ts in range(3)]

    def test_source_is_stamped_after_all_its_puts_on_either_side(self):
        for local_names, commit in ((self.LOCAL, []), (set(), [("commit",)]),
                                    ({"x"}, [("commit",)])):
            log, _, stamps = self.drive(local_names, plan_name="src")
            assert sorted(stamps.times) == [0, 1, 2]
            assert [e[:3] for e in log] == [
                entry for ts in range(3)
                for entry in [("put", "x", ts), ("put", "y", ts), *commit,
                              ("stamp", ts)]
            ]

    def test_stamp_keeps_the_latest_source(self):
        stamps = FrameStamps(t0=0.0)
        stamps.stamp(0, 1.0)
        first = stamps.times[0]
        stamps.times[0] = first + 1e9  # a later source already stamped
        stamps.stamp(0, 1.0)
        assert stamps.times[0] == first + 1e9


class TestSharedPieces:
    def test_terminal_channels_are_produced_and_unconsumed(self):
        assert terminal_channels(relay_graph()) == ["b", "c"]

    def test_completion_is_the_last_terminal_arrival(self):
        arrivals = {"b": {0: 1.0, 1: 2.0}, "c": {0: 1.5}}
        assert merge_completion(arrivals) == {0: 1.5}
        assert merge_completion({}) == {}

    def test_config_errors_are_typed(self):
        with pytest.raises(ExecutorConfigError, match="static channel 'cfg'"):
            check_static_inputs(relay_graph(), {})
        check_static_inputs(relay_graph(), {"cfg": 1})
        with pytest.raises(ExecutorConfigError, match=">= 1"):
            check_timestamps(0)
