"""Unit tests for the trace's marks and its listeners."""

from __future__ import annotations

from repro.obs.export import record_to_dict
from repro.sim.trace import ExecSpan, ItemEvent, Mark, TraceRecorder


class TestSpan:
    def test_duration_and_instant(self):
        s = Mark("work", "exec", 1.0, 3.5)
        assert s.duration == 2.5
        assert not s.is_instant
        assert Mark("mark", "sched", 2.0, 2.0).is_instant

    def test_equality(self):
        a = Mark("n", "c", 0.0, 1.0, track="t", timestamp=3, args={"k": 1})
        b = Mark("n", "c", 0.0, 1.0, track="t", timestamp=3, args={"k": 1})
        assert a == b
        assert a != Mark("n", "c", 0.0, 2.0, track="t", timestamp=3)

    def test_to_dict_omits_defaults(self):
        d = record_to_dict(Mark("n", "c", 0.0, 1.0))
        assert "timestamp" not in d and "args" not in d
        full = record_to_dict(Mark("n", "c", 0.0, 1.0, timestamp=2, args={"x": 1}))
        assert full["timestamp"] == 2 and full["args"] == {"x": 1}


class TestSpanTracer:
    def test_record_and_read(self):
        tr = TraceRecorder()
        heard = []
        tr.subscribe(heard.append)
        span = ExecSpan(3, "a", 0, 0.0, 1.0)
        item = ItemEvent(1.0, "frame", "put", 0, task="a")
        mark = Mark.slip("a", 2.0, 0.5, timestamp=0)
        tr.record_span(span)
        tr.record_item(item)
        tr.record_mark(mark)
        assert heard == [span, item, mark]
        assert (tr.spans, tr.items, tr.marks) == ([span], [item], [mark])
        assert tr.spans_on(3) == [span] and tr.timestamps() == [0]

    def test_sink_streams_every_span_even_evicted(self):
        """A listener hears every record, also those ``clear`` drops
        later; listeners stay subscribed across it."""
        seen = []
        tr = TraceRecorder()
        tr.subscribe(seen.append)
        tr.record_mark(Mark("a", "t", 0.0, 0.0))
        tr.clear()
        tr.record_mark(Mark("b", "t", 1.0, 1.0))
        assert [m.name for m in seen] == ["a", "b"]
        assert [m.name for m in tr.marks] == ["b"]

    def test_views_index_spans_recorded_after_a_read(self):
        tr = TraceRecorder()
        tr.record_span(ExecSpan(0, "a", 0, 0.0, 1.0))
        assert tr.tasks() == ["a"]
        tr.record_span(ExecSpan(1, "b", 1, 1.0, 2.0))
        assert tr.tasks() == ["a", "b"] and tr.processors() == [0, 1]
        assert tr.completion_time(1) == 2.0

    def test_clear_keeps_counters(self):
        """``clear`` drops every record and index but keeps the listeners,
        and the views index what is recorded after it."""
        tr = TraceRecorder()
        heard = []
        tr.subscribe(heard.append)
        tr.record_span(ExecSpan(0, "a", 0, 0.0, 1.0))
        tr.record_item(ItemEvent(1.0, "frame", "put", 0))
        assert tr.tasks() == ["a"]
        tr.clear()
        assert (tr.spans, tr.items, tr.marks) == ([], [], [])
        assert tr.tasks() == [] and tr.completion_time(0) is None
        tr.record_span(ExecSpan(1, "b", 1, 1.0, 2.0))
        assert tr.tasks() == ["b"] and len(heard) == 3
