"""JSONL streaming of a run's trace records.

:class:`JsonlSpanSink` is a :class:`~repro.sim.trace.TraceRecorder`
listener: ``trace.subscribe(JsonlSpanSink(path))`` writes every record —
:class:`~repro.sim.trace.ExecSpan`, :class:`~repro.sim.trace.ItemEvent`
and :class:`~repro.sim.trace.Mark` — as one JSON object the moment it is
recorded, so the file holds a run of any length.  :func:`read_jsonl_spans`
loads the records back.  The Chrome-trace exporter is
:meth:`TraceRecorder.to_chrome_trace`, over the same records.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Union

from repro.sim.trace import ExecSpan, ItemEvent, Mark, Record

__all__ = [
    "JsonlSpanSink",
    "read_jsonl_spans",
    "record_to_dict",
    "record_from_dict",
]

_KINDS = {"span": ExecSpan, "item": ItemEvent, "mark": Mark}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def record_to_dict(record: Record) -> dict:
    """One JSONL line's object: the record's kind and every field that
    differs from its default."""
    out = {"record": _KIND_OF[type(record)]}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.default_factory is not dataclasses.MISSING:
            if value != f.default_factory():
                out[f.name] = value
        elif value != f.default:
            out[f.name] = value
    return out


def record_from_dict(d: dict) -> Record:
    """Inverse of :func:`record_to_dict` (an object without a kind is a
    :class:`~repro.sim.trace.Mark`)."""
    fields = dict(d)
    return _KINDS[fields.pop("record", "mark")](**fields)


class JsonlSpanSink:
    """Streaming JSONL exporter: each recorded record becomes one line.

    Accepts a path (opened for append) or an open text handle.  Use as
    ``trace.subscribe(JsonlSpanSink(path))``; call :meth:`close` (or use
    as a context manager) to flush and release the file.  Write errors
    propagate: a broken exporter should fail the run loudly, not rot
    silently.
    """

    def __init__(self, target: Union[str, IO[str]], flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self._owns = isinstance(target, str)
        self._fh: IO[str] = open(target, "a") if isinstance(target, str) else target
        self._flush_every = flush_every
        self.written = 0

    def __call__(self, record: Record) -> None:
        self._fh.write(json.dumps(record_to_dict(record)) + "\n")
        self.written += 1
        if self.written % self._flush_every == 0:
            self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl_spans(fh: Union[str, IO[str]]) -> list[Record]:
    """Load records back from a JSONL file (inverse of :class:`JsonlSpanSink`)."""
    own = isinstance(fh, str)
    handle: IO[str] = open(fh) if isinstance(fh, str) else fh
    try:
        return [record_from_dict(json.loads(line)) for line in handle if line.strip()]
    finally:
        if own:
            handle.close()
