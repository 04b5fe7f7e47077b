"""Unit tests for JSONL streaming of trace records and the Chrome-trace
export of marks."""

from __future__ import annotations

import json

import pytest

from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.builders import chain_graph
from repro.obs.export import JsonlSpanSink, read_jsonl_spans
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.sim.trace import ExecSpan, ItemEvent, Mark, TraceRecorder
from repro.state import State


def sample_records() -> list:
    return [
        ExecSpan(0, "T1", 0, 0.0, 0.5, variant="dp2"),
        ItemEvent(0.5, "frame", "put", 0, task="T1"),
        Mark.comm("frame", "inter_node", 0.5, 0.75, nbytes=64, timestamp=0),
        ExecSpan(1, "T2", 0, 0.75, 1.5, preempted=True),
    ]


def replay(records, trace: TraceRecorder) -> None:
    for r in records:
        if isinstance(r, ExecSpan):
            trace.record_span(r)
        elif isinstance(r, ItemEvent):
            trace.record_item(r)
        else:
            trace.record_mark(r)


class TestJsonl:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with JsonlSpanSink(path, flush_every=1) as sink:
            trace = TraceRecorder()
            trace.subscribe(sink)
            replay(sample_records(), trace)
        assert read_jsonl_spans(path) == sample_records()

    def test_streaming_is_o1_memory(self, tmp_path):
        # each record is on disk the moment it is recorded, not at close
        path = tmp_path / "spans.jsonl"
        with JsonlSpanSink(str(path), flush_every=1) as sink:
            trace = TraceRecorder()
            trace.subscribe(sink)
            replay(sample_records()[:2], trace)
            assert len(path.read_text().splitlines()) == 2
            replay(sample_records()[2:], trace)
        assert len(read_jsonl_spans(str(path))) == 4

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        path.write_text('{"name": "a", "cat": "t", "start": 0, "end": 1}\n\n')
        (s,) = read_jsonl_spans(str(path))
        assert s.name == "a"

    def test_flush_every_validated(self):
        with pytest.raises(ValueError):
            JsonlSpanSink("/dev/null", flush_every=0)


class TestChromeTrace:
    def test_events_structure(self):
        trace = TraceRecorder()
        replay(sample_records(), trace)
        trace.record_mark(Mark.slip("T2", 0.75, 0.25, timestamp=0))
        events = trace.to_chrome_trace()
        marks = [e for e in events if e["pid"] == 2]
        assert {m["args"]["name"] for m in marks if m["name"] == "thread_name"} == {
            "comm:inter_node", "schedule"
        }
        (xfer,) = [e for e in marks if e["ph"] == "X"]
        (slip,) = [e for e in marks if e["ph"] == "i"]
        assert xfer["name"] == "xfer:frame" and slip["name"] == "slip:T2"
        assert xfer["ts"] == 500_000.0 and xfer["dur"] == pytest.approx(250_000.0)
        assert xfer["args"]["bytes"] == 64 and xfer["args"]["timestamp"] == 0
        assert slip["args"]["amount"] == 0.25

    def test_tracks_share_tids(self):
        trace = TraceRecorder()
        trace.record_mark(Mark("a", "t", 0.0, 1.0, track="x"))
        trace.record_mark(Mark("b", "t", 1.0, 2.0, track="x"))
        xs = [e for e in trace.to_chrome_trace() if e["ph"] == "X"]
        assert xs[0]["tid"] == xs[1]["tid"]

    def test_accepts_tracer_directly(self):
        """A run's own trace exports as is: processor rows, channel rows
        and a row per mark track (here the transfer between the nodes)."""
        cluster = ClusterSpec(2, 1)
        sched = PipelinedSchedule(
            IterationSchedule(
                [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.5, 1.0)]
            ),
            period=3.0, shift=0, n_procs=2,
        )
        result = StaticExecutor(
            chain_graph([1.0, 1.0]), State(n_models=1), cluster, sched,
            comm=CommModel.uniform(cluster, 0.5, float("inf")),
        ).run(2)
        events = result.trace.to_chrome_trace()
        assert {e["pid"] for e in events} == {0, 1, 2}
        xfers = [e for e in events if e["pid"] == 2 and e["ph"] == "X"]
        assert [x["args"]["timestamp"] for x in xfers] == [0, 1]
        assert all(x["dur"] == pytest.approx(500_000.0) for x in xfers)

    def test_write_chrome_trace_file_parses(self, tmp_path):
        trace = TraceRecorder()
        replay(sample_records(), trace)
        path = tmp_path / "trace.json"
        with open(path, "w") as fh:
            json.dump({"traceEvents": trace.to_chrome_trace()}, fh)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"] == trace.to_chrome_trace()
        assert any(e.get("ph") == "X" and e["pid"] == 2 for e in doc["traceEvents"])
