"""Unit tests for JSONL streaming of trace records and the Chrome-trace
export of marks."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.builders import chain_graph
from repro.obs import Observability
from repro.obs.export import JsonlSpanSink, read_jsonl_spans, record_from_dict, record_to_dict
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


class _Streamed(Observability):
    """An observed run that also streams every record into ``sink``."""

    def __init__(self, sink: JsonlSpanSink) -> None:
        super().__init__()
        self.sink = sink

    def on_record(self, record) -> None:
        super().on_record(record)
        self.sink(record)


#: SHA-256 of the JSONL stream and of the Chrome trace of :func:`tracker_export`,
#: written while the span and item records were frozen dataclasses.  A change of
#: record representation must leave both files byte-identical.
JSONL_SHA256 = "cc574c6f91632350934925db094b2cc6d696c27886af3eb9d0b62d724f1d53e0"
CHROME_SHA256 = "b6ab396e292b1e4bdf0c39a2b611386c574b2e85b750438a16d7f5fb35fc3759"


def tracker_export() -> tuple[bytes, bytes, list]:
    """An 8-frame tracker run on the DES over a 2x4 cluster with paid
    transfers (so comm marks are written beside the spans and items):
    its JSONL stream, its Chrome trace as JSON, and its records."""
    cluster = ClusterSpec(nodes=2, procs_per_node=4)
    comm = CommModel.uniform(cluster, 2e-3, 5e7)
    graph, state = build_tracker_graph(), State(n_models=8)
    buf = io.StringIO()
    sink = JsonlSpanSink(buf, flush_every=1)
    result = StaticExecutor(
        graph, state, cluster, OptimalScheduler(cluster, comm=comm).solve(graph, state),
        comm=comm, obs=_Streamed(sink),
    ).run(8)
    trace = result.trace
    chrome = json.dumps({"traceEvents": trace.to_chrome_trace()})
    return buf.getvalue().encode(), chrome.encode(), [*trace.spans, *trace.items, *trace.marks]


class TestExportDifferential:
    @pytest.fixture(scope="class")
    def export(self):
        return tracker_export()

    def test_run_writes_every_kind(self, export):
        _jsonl, _chrome, records = export
        kinds = {type(r) for r in records}
        assert kinds == {ExecSpan, ItemEvent, Mark}
        assert {r.variant for r in records if isinstance(r, ExecSpan)} == {"serial", "dp4"}

    def test_jsonl_bytes_are_frozen(self, export):
        assert hashlib.sha256(export[0]).hexdigest() == JSONL_SHA256

    def test_chrome_trace_bytes_are_frozen(self, export):
        assert hashlib.sha256(export[1]).hexdigest() == CHROME_SHA256

    def test_jsonl_reads_back_every_record(self, export):
        jsonl, _chrome, records = export
        back = read_jsonl_spans(io.StringIO(jsonl.decode()))
        assert sorted(map(repr, back)) == sorted(map(repr, records))


#: Each record beside the object it writes: every field that differs from
#: its default, the defaults left out (``0`` is not ``None``, ``""`` not ``None``).
DICTS = [
    (ExecSpan(2, "T4", 7, 0.25, 1.5, chunk=3, preempted=True, variant="dp4",
              cost=0.75, node_class="nominal"),
     {"record": "span", "proc": 2, "task": "T4", "timestamp": 7, "start": 0.25,
      "end": 1.5, "chunk": 3, "preempted": True, "variant": "dp4", "cost": 0.75,
      "node_class": "nominal"}),
    (ExecSpan(0, "T1", 0, 0.0, 0.5),
     {"record": "span", "proc": 0, "task": "T1", "timestamp": 0, "start": 0.0, "end": 0.5}),
    (ExecSpan(1, "T2", 0, 0.0, 0.5, chunk=0, cost=0.0, node_class=""),
     {"record": "span", "proc": 1, "task": "T2", "timestamp": 0, "start": 0.0,
      "end": 0.5, "chunk": 0, "cost": 0.0, "node_class": ""}),
    (ItemEvent(0.5, "frame", "put", 3, task="T1"),
     {"record": "item", "time": 0.5, "channel": "frame", "kind": "put",
      "timestamp": 3, "task": "T1"}),
    (ItemEvent(1.0, "mask", "consume", 4),
     {"record": "item", "time": 1.0, "channel": "mask", "kind": "consume", "timestamp": 4}),
    (Mark("a", "t", 0.0, 1.0),
     {"record": "mark", "name": "a", "cat": "t", "start": 0.0, "end": 1.0}),
    (Mark("b", "t", 1.0, 1.0, track="0", timestamp=-1, args={}),
     {"record": "mark", "name": "b", "cat": "t", "start": 1.0, "end": 1.0}),
    (Mark.comm("frame", "inter_node", 0.5, 0.75, nbytes=64, timestamp=0),
     {"record": "mark", "name": "xfer:frame", "cat": "comm", "start": 0.5, "end": 0.75,
      "track": "comm:inter_node", "timestamp": 0,
      "args": {"channel": "frame", "tier": "inter_node", "bytes": 64}}),
]

DICT_IDS = [f"{d['record']}-{i}" for i, (_r, d) in enumerate(DICTS)]


class TestRecordDict:
    @pytest.mark.parametrize("record, expected", DICTS, ids=DICT_IDS)
    def test_defaults_are_left_out(self, record, expected):
        assert record_to_dict(record) == expected
        assert list(record_to_dict(record)) == list(expected)

    @pytest.mark.parametrize("record, expected", DICTS, ids=DICT_IDS)
    def test_round_trip(self, record, expected):
        back = record_from_dict(record_to_dict(record))
        assert type(back) is type(record) and back == record
