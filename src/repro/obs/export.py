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

_MARK_FIELDS = dataclasses.fields(Mark)
#: Per record type: its kind, its field names in order and the defaults of
#: those that have one (the two tuples carry theirs; ``Mark``'s ``args``
#: default is its factory's empty dict).
_SHAPES = {
    ExecSpan: ("span", ExecSpan._fields, ExecSpan._field_defaults),
    ItemEvent: ("item", ItemEvent._fields, ItemEvent._field_defaults),
    Mark: ("mark", tuple(f.name for f in _MARK_FIELDS), {
        f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
        for f in _MARK_FIELDS
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    }),
}
_KINDS = {kind: cls for cls, (kind, _names, _defaults) in _SHAPES.items()}


def record_to_dict(record: Record) -> dict:
    """One JSONL line's object: the record's kind and every field that
    differs from its default."""
    kind, names, defaults = _SHAPES[type(record)]
    out = {"record": kind}
    for name in names:
        value = getattr(record, name)
        if name not in defaults or value != defaults[name]:
            out[name] = value
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
