"""Unit tests for the execution trace recorder."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.sim.trace import ExecSpan, ItemEvent, Mark, TraceRecorder


def span(proc, task, ts, start, end, **kw):
    return ExecSpan(proc=proc, task=task, timestamp=ts, start=start, end=end, **kw)


class TestExecSpan:
    def test_duration(self):
        assert span(0, "t", 0, 1.0, 3.5).duration == 2.5

    def test_overlaps(self):
        a = span(0, "a", 0, 0.0, 2.0)
        assert a.overlaps(span(0, "b", 0, 1.0, 3.0))
        assert not a.overlaps(span(0, "b", 0, 2.0, 3.0))  # touching is fine


FULL_SPAN = ExecSpan(2, "T4", 7, 0.25, 1.5, chunk=3, preempted=True,
                     variant="dp4", cost=0.75, node_class="nominal")
BARE_SPAN = ExecSpan(0, "T1", 0, 0.0, 0.5)
FULL_ITEM = ItemEvent(0.5, "frame", "put", 3, task="T1")
BARE_ITEM = ItemEvent(1.0, "mask", "consume", 4)
RECORDS = (FULL_SPAN, BARE_SPAN, FULL_ITEM, BARE_ITEM)
RECORD_IDS = ("full-span", "bare-span", "full-item", "bare-item")


class TestRecordContract:
    """What a caller may rely on in the two per-operation records,
    whatever their representation: immutable values, picklable (the
    process substrate ships them over pipes), with a fixed field order,
    fixed defaults and a fixed ``repr``."""

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_fields_cannot_be_assigned(self, record):
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equality_and_hash_go_by_value(self):
        twin = ExecSpan(2, "T4", 7, 0.25, 1.5, chunk=3, preempted=True,
                        variant="dp4", cost=0.75, node_class="nominal")
        assert twin == FULL_SPAN and hash(twin) == hash(FULL_SPAN)
        assert ExecSpan(0, "T1", 0, 0.0, 0.5, preempted=True) != BARE_SPAN
        assert ItemEvent(0.5, "frame", "put", 3, "T1") == FULL_ITEM
        assert hash(ItemEvent(0.5, "frame", "put", 3, "T1")) == hash(FULL_ITEM)
        assert ItemEvent(0.5, "frame", "get", 3, "T1") != FULL_ITEM
        assert len({FULL_SPAN, twin, BARE_SPAN, FULL_ITEM, BARE_ITEM}) == 4

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record

    def test_repr_is_pinned(self):
        assert repr(FULL_SPAN) == (
            "ExecSpan(proc=2, task='T4', timestamp=7, start=0.25, end=1.5, "
            "chunk=3, preempted=True, variant='dp4', cost=0.75, node_class='nominal')"
        )
        assert repr(BARE_SPAN) == (
            "ExecSpan(proc=0, task='T1', timestamp=0, start=0.0, end=0.5, "
            "chunk=None, preempted=False, variant='serial', cost=None, node_class=None)"
        )
        assert repr(FULL_ITEM) == (
            "ItemEvent(time=0.5, channel='frame', kind='put', timestamp=3, task='T1')"
        )
        assert repr(BARE_ITEM) == (
            "ItemEvent(time=1.0, channel='mask', kind='consume', timestamp=4, task='')"
        )

    def test_field_order_and_defaults_are_pinned(self):
        assert ExecSpan._fields == (
            "proc", "task", "timestamp", "start", "end",
            "chunk", "preempted", "variant", "cost", "node_class",
        )
        assert ExecSpan._field_defaults == {
            "chunk": None, "preempted": False, "variant": "serial",
            "cost": None, "node_class": None,
        }
        assert ItemEvent._fields == ("time", "channel", "kind", "timestamp", "task")
        assert ItemEvent._field_defaults == {"task": ""}
        assert FULL_SPAN == ExecSpan(*(getattr(FULL_SPAN, f) for f in ExecSpan._fields))


class TestTraceRecorder:
    @pytest.fixture
    def trace(self):
        t = TraceRecorder()
        t.record_span(span(0, "T1", 0, 0.0, 1.0))
        t.record_span(span(1, "T2", 0, 1.0, 2.0))
        t.record_span(span(0, "T1", 1, 1.0, 2.0))
        t.record_span(span(1, "T2", 1, 2.0, 3.0))
        return t

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            TraceRecorder().record_span(span(0, "t", 0, 2.0, 1.0))

    def test_views(self, trace):
        assert [s.task for s in trace.spans_on(0)] == ["T1", "T1"]
        assert [s.timestamp for s in trace.spans_of("T2")] == [0, 1]
        assert len(trace.spans_for_timestamp(1)) == 2
        assert trace.timestamps() == [0, 1]
        assert trace.processors() == [0, 1]
        assert trace.tasks() == ["T1", "T2"]

    def test_makespan(self, trace):
        assert trace.makespan == 3.0

    def test_completion_time_any(self, trace):
        assert trace.completion_time(0) == 2.0

    def test_completion_time_with_sinks(self, trace):
        assert trace.completion_time(0, sink_tasks=["T2"]) == 2.0
        assert trace.completion_time(0, sink_tasks=["T3"]) is None

    def test_completion_ignores_preempted_sink_spans(self):
        t = TraceRecorder()
        t.record_span(span(0, "T2", 0, 0.0, 1.0, preempted=True))
        assert t.completion_time(0, sink_tasks=["T2"]) is None

    def test_completed_timestamps(self, trace):
        assert trace.completed_timestamps(["T2"]) == [0, 1]

    def test_busy_time_and_utilization(self, trace):
        assert trace.busy_time(0) == 2.0
        assert trace.busy_time(0, until=1.5) == 1.5
        assert trace.utilization([0, 1]) == pytest.approx((2.0 + 2.0) / (3.0 * 2))

    def test_item_events(self, trace):
        trace.record_item(ItemEvent(0.5, "frame", "put", 0, task="T1"))
        assert trace.items[0].channel == "frame"

    def test_clear(self, trace):
        trace.clear()
        assert len(trace) == 0 and trace.makespan == 0.0

    def test_empty_trace(self):
        t = TraceRecorder()
        assert t.completion_time(0) is None
        assert t.utilization([0]) == 0.0
        assert t.busy_time(5) == 0.0


class TestRecordRouting:
    """With nobody listening ``record_item`` / ``record_mark`` are the
    lists' own ``append``; a listener, and a copy, must still get it right."""

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_records_into_its_own_lists(self, duplicate):
        trace = TraceRecorder()
        trace.record_item(ItemEvent(0.0, "c", "put", 0))
        twin = duplicate(trace)
        twin.record_item(ItemEvent(1.0, "c", "put", 1))
        twin.record_mark(Mark.slip("t", 1.0, 0.5))
        assert len(trace.items) == 1 and not trace.marks
        assert len(twin.items) == 2 and len(twin.marks) == 1

    def test_a_subscribed_recorder_tells_the_listener_and_so_does_its_copy(self):
        trace, heard = TraceRecorder(), []
        trace.record_item(ItemEvent(0.0, "c", "put", 0))
        trace.subscribe(heard.append)
        trace.record_item(ItemEvent(1.0, "c", "get", 0))
        trace.record_mark(Mark.slip("t", 1.0, 0.5))
        assert [type(r) for r in heard] == [ItemEvent, Mark]
        twin = copy.deepcopy(trace)  # keeps the listener, a bound builtin
        twin.record_item(ItemEvent(2.0, "c", "consume", 0))
        assert len(twin.items) == 3 and len(trace.items) == 2
        assert heard[-1].kind == "consume"


class TestChromeTraceExport:
    @pytest.fixture
    def trace(self):
        t = TraceRecorder()
        t.record_span(span(0, "T1", 0, 0.0, 1.0))
        t.record_span(span(1, "T2", 0, 1.0, 2.0, preempted=True))
        t.record_span(span(0, "T1", 1, 1.0, 2.0, chunk=3))
        t.record_item(ItemEvent(0.5, "frame", "put", 0, task="T1"))
        t.record_item(ItemEvent(1.5, "frame", "consume", 0, task="T2"))
        return t

    def test_span_events(self, trace):
        events = trace.to_chrome_trace()
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        first = next(e for e in xs if e["name"] == "T1" and e["args"]["timestamp"] == 0)
        assert first["tid"] == 0
        assert first["ts"] == 0.0
        assert first["dur"] == pytest.approx(1_000_000.0)

    def test_preempted_and_chunk_args(self, trace):
        events = trace.to_chrome_trace()
        pre = next(e for e in events if e.get("cat") == "preempted")
        assert pre["args"]["preempted"] is True
        chunked = next(
            e for e in events if e["ph"] == "X" and e["args"].get("chunk") is not None
        )
        assert chunked["args"]["chunk"] == 3

    def test_item_instants_on_channel_rows(self, trace):
        events = trace.to_chrome_trace()
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 2
        assert {e["cat"] for e in instants} == {"put", "consume"}
        assert all(e["pid"] == 1 for e in instants)

    def test_metadata_rows_name_processors_and_channels(self, trace):
        events = trace.to_chrome_trace()
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[(0, 0)] == "cpu0"
        assert names[(0, 1)] == "cpu1"
        assert names[(1, 0)] == "frame"

    def test_time_scale(self, trace):
        events = trace.to_chrome_trace(time_scale=1000.0)
        first = next(e for e in events if e["ph"] == "X")
        assert first["dur"] == pytest.approx(1000.0)

    def test_serializable(self, trace):
        import json

        text = json.dumps({"traceEvents": trace.to_chrome_trace()})
        assert '"traceEvents"' in text

    def test_empty_trace_exports_minimal(self):
        events = TraceRecorder().to_chrome_trace()
        assert all(e["ph"] == "M" for e in events)


class TestChromeFlowEvents:
    def make_trace(self):
        t = TraceRecorder()
        t.record_item(ItemEvent(0.5, "frame", "put", 0, task="src"))
        t.record_item(ItemEvent(0.8, "frame", "get", 0, task="detect"))
        t.record_item(ItemEvent(0.9, "frame", "get", 0, task="track"))
        t.record_item(ItemEvent(1.5, "frame", "put", 1, task="src"))
        t.record_item(ItemEvent(1.8, "frame", "get", 1, task="detect"))
        return t

    def test_each_get_gets_a_flow_pair(self):
        events = self.make_trace().to_chrome_trace()
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == 3 and len(ends) == 3
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        assert all(e["cat"] == "flow" for e in starts + ends)

    def test_flow_links_put_time_to_get_time(self):
        events = self.make_trace().to_chrome_trace(time_scale=1.0)
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        for fin in (e for e in events if e["ph"] == "f"):
            start = starts[fin["id"]]
            assert start["ts"] <= fin["ts"]
            assert start["name"] == fin["name"]
            assert fin["bp"] == "e"
        # Fan-out: ts=0 was got twice, so two arrows leave the same put time.
        ts0 = [e for e in starts.values() if e["args"]["timestamp"] == 0]
        assert len(ts0) == 2
        assert {e["ts"] for e in ts0} == {0.5}
        assert all(e["args"]["task"] == "src" for e in ts0)

    def test_get_without_put_emits_no_flow(self):
        t = TraceRecorder()
        t.record_item(ItemEvent(0.8, "frame", "get", 0, task="detect"))
        events = t.to_chrome_trace()
        assert not [e for e in events if e["ph"] in ("s", "f")]

    def test_flows_serializable(self):
        import json

        events = self.make_trace().to_chrome_trace()
        json.dumps({"traceEvents": events})
