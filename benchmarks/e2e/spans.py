"""The benchmark's own span recorder and the per-layer budget built from it.

Spans are recorded from the benchmark's files only: a workload either
opens a span around its call into a layer (``with rec.span(...)``) or asks
the recorder to wrap a layer's *public* function for the length of the
traced run (:meth:`Recorder.wrap`), so a call that the program makes on
the benchmark's behalf — ``ScheduleTable.build`` reaching
``search_schedules``, a DES process body reaching ``STMChannel.put`` — is
still seen at the layer boundary.  Nothing under ``src/`` is edited; every
wrap is undone when the run ends.

A span is ``(id, name, trace, parent, start, end, concurrent)``.  ``trace``
groups the spans of one unit of work (one table state, one frame, one
switch); a span opened without one shares its parent's.  Spans live in
memory and are written as JSONL once, at exit.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Spans adapted from a concurrent run
(``Recorder.add``: the live substrates' per-task kernel spans, which
overlap one another) are listed in the dump but never subtracted from
their parent.

What is kept while the program runs is an event log in three flat arrays
(a code, a trace index and a clock reading per enter, a code and a clock
reading per exit), not an object per span: the simulated workload opens ~75
spans a frame around calls a few microseconds long, and 20 bytes a span
instead of ~200 keep the recorder from pushing the program's own data out
of the cache.  The spans are rebuilt from the log afterwards.  The recorder
also measures its own cost (:meth:`Recorder.calibrate`): the part that
falls inside a span's interval and the part that falls into its parent's
self time, and :meth:`Recorder.self_times` takes both out.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["Recorder", "NullRecorder", "budget_lines"]

_clock = time.perf_counter
_EXIT, _ADDED = -1, -2   # event codes below the span-name indices


class NullRecorder:
    """The tracing-off recorder: every call is a no-op.

    End-to-end metrics are measured against this one, so the untraced
    timed region pays an empty ``with`` per coarse span; nothing is wrapped
    (the workloads skip ``wrap`` when ``enabled`` is false).
    """

    enabled = False
    segment: Optional[str] = None

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[None]:
        yield

    def unwrap_all(self) -> None:
        pass


def _sliced(log, nid: int, tid: int, gen):
    """``gen``, with every resumption logged as one span.

    A DES process body or a hub's blocking ``put`` runs in slices between
    its ``yield`` points; one span around the whole generator would count
    the time it spends suspended (and break the nesting of the log).
    """
    codes, traces, times = log
    resume, arg = gen.send, None
    while True:
        codes(nid)
        traces(tid)
        times(_clock())
        try:
            item = resume(arg)
        except StopIteration as stop:
            return stop.value
        finally:
            times(_clock())
            codes(_EXIT)
        try:
            arg = yield item
            resume = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:   # thrown in from outside: pass it on
            resume, arg = gen.throw, exc


class Recorder:
    """In-memory span recorder (single-threaded nesting, plus adapted spans)."""

    enabled = True

    def __init__(self) -> None:
        #: Free for the workload: the trace id of the unit it is running,
        #: for a hook that derives finer trace ids from it.
        self.segment: Optional[str] = None
        self.counts: dict[str, float] = {}
        # the event log: one entry per enter / exit / added span
        self._codes = array("i")    # index into _names, or _EXIT / _ADDED
        self._traces = array("i")   # per enter: index into _trace_names
        self._times = array("d")
        self._log = (self._codes.append, self._traces.append, self._times.append)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._trace_names: list[Optional[str]] = [None]   # 0: the parent's
        self._trace_ids: dict[Optional[str], int] = {None: 0}
        self._added: list[tuple[str, Optional[str], float, float]] = []
        self._wrapped: list[tuple[Any, str, Any]] = []
        self.cost_inside_s = 0.0   # see calibrate()
        self.cost_outside_s = 0.0

    # -- recording ------------------------------------------------------------

    def _ids(self, name: str, trace: Optional[str]) -> tuple[int, int]:
        """Log indices of a span name and of a trace id (new ones are added)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        tid = self._trace_ids.get(trace)
        if tid is None:
            tid = self._trace_ids[trace] = len(self._trace_names)
            self._trace_names.append(trace)
        return nid, tid

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[None]:
        nid, tid = self._ids(name, trace)
        codes, traces, times = self._log
        codes(nid)
        traces(tid)
        times(_clock())
        try:
            yield
        finally:
            times(_clock())
            codes(_EXIT)

    def add(self, name: str, start: float, end: float,
            trace: Optional[str] = None) -> None:
        """Record a concurrent span measured elsewhere (adapted from a
        public trace) under the span that is open now."""
        self._added.append((name, trace, start, end))
        self._codes.append(_ADDED)
        self._times.append(end)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name`` (work done at a boundary)."""
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, gen, name: str, trace: Optional[str] = None):
        """``gen`` with one span ``name`` around each of its resumptions."""
        return _sliced(self._log, *self._ids(name, trace), gen)

    def replace(self, owner: Any, attr: str, new: Any) -> Any:
        """Set ``owner.attr = new`` until :meth:`unwrap_all`; returns the old."""
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._wrapped.append((owner, attr, old))
        return old

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        trace_of: Optional[Callable[..., Optional[str]]] = None,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace the function (or class) ``owner.attr`` by one that records
        span ``name`` around every call.

        ``owner`` is the module or class whose namespace the *caller*
        resolves the function through (a ``from x import f`` binds ``f`` in
        the importer, so that is where the wrap goes).  ``trace_of(*args,
        **kwargs)`` may derive the trace id from the call;
        ``on_result(recorder, result, *args, **kwargs)`` sees the return
        value, for counts that only the callee knows.  A generator function
        gets one span per resumption of the generator it returns.
        """
        fn = owner.__dict__[attr]
        rec = self
        nid, tid = self._ids(name, None)
        log = codes, traces, times = self._log

        if inspect.isgeneratorfunction(fn):
            def traced(*args: Any, **kwargs: Any) -> Any:
                return _sliced(log, nid, tid, fn(*args, **kwargs))
        elif trace_of is None and on_result is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                codes(nid)
                traces(tid)
                times(_clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    times(_clock())
                    codes(_EXIT)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                trace = trace_of(*args, **kwargs) if trace_of is not None else None
                with rec.span(name, trace):
                    result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result, *args, **kwargs)
                return result

        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__doc__ = fn.__doc__
        self.replace(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap` and :meth:`replace`, newest first."""
        while self._wrapped:
            owner, attr, raw = self._wrapped.pop()
            setattr(owner, attr, raw)

    def calibrate(self, calls: int = 10_000, blocks: int = 5) -> None:
        """Measure what one wrapped call costs, inside and outside its span.

        A small method is called ``calls`` times bare and ``calls`` times
        wrapped, with positional and keyword arguments like the calls the
        workloads wrap (fastest of ``blocks`` blocks each).  The median
        recorded duration less the bare call is the cost *inside* the
        span's interval; the rest of what wrapping added is the cost
        *outside* it, which lands in the parent's self time.  Call it before
        anything is recorded; the events logged here are dropped again.
        """
        class Probe:
            def op(self, a, b, c=None, size=0):
                return a

        def per_call() -> float:
            probe = Probe()
            t0 = _clock()
            for i in range(calls):
                probe.op(i, 2, size=3)
            return (_clock() - t0) / calls

        mark = len(self._codes), len(self._traces)
        bare = min(per_call() for _ in range(blocks))
        self.wrap(Probe, "op", "bench.calibrate")
        wrapped = min(per_call() for _ in range(blocks))
        self._wrapped.pop()
        recorded = sorted(s[5] - s[4] for s in self.spans())
        del self._codes[mark[0]:], self._times[mark[0]:], self._traces[mark[1]:]
        self.cost_inside_s = max(0.0, recorded[len(recorded) // 2] - bare)
        self.cost_outside_s = max(0.0, wrapped - bare - self.cost_inside_s)

    # -- analysis -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """``[(id, name, trace, parent, start, end, concurrent)]`` in order
        of opening, rebuilt from the event log (spans still open are left
        out)."""
        out: list[Optional[tuple]] = []
        stack: list[tuple[int, str, Optional[str], float]] = []
        traces = iter(self._traces)
        added = iter(self._added)
        for code, t in zip(self._codes, self._times):
            parent = stack[-1] if stack else (None, "", None, 0.0)
            if code == _EXIT:
                sid, name, trace, start = stack.pop()
                up = stack[-1][0] if stack else None
                out[sid] = (sid, name, trace, up, start, t, False)
            elif code == _ADDED:
                name, trace, start, end = next(added)
                out.append((len(out), name, trace or parent[2], parent[0],
                            start, end, True))
            else:
                trace = self._trace_names[next(traces)] or parent[2]
                stack.append((len(out), self._names[code], trace, t))
                out.append(None)  # reserve the id so children sort after it
        return [s for s in out if s is not None]

    def self_times(self, root: Optional[str] = None) -> dict[str, list]:
        """``{name: [self_seconds, calls, total_seconds]}`` over the spans.

        With ``root`` given, only the spans of that name and those nested
        (at any depth) under them count — the timed region, as opposed to
        set-up or probes recorded by the same recorder.  The root's own
        entry is the time inside it that no child span covers.  Self and
        total times have the recorder's own cost taken out (see
        :meth:`calibrate`): ``cost_inside_s`` per span, ``cost_outside_s``
        per direct child, the whole cost per deeper descendant.
        """
        spans = self.spans()
        size = spans[-1][0] + 1 if spans else 0
        child_cover = [0.0] * size
        children = [0] * size      # direct children
        below = [0] * size         # descendants at any depth
        for sid, _name, _trace, parent, start, end, concurrent in reversed(spans):
            if parent is not None and not concurrent:
                child_cover[parent] += end - start
                children[parent] += 1
                below[parent] += 1 + below[sid]
        inside = [root is None] * size
        each = self.cost_inside_s + self.cost_outside_s
        out: dict[str, list] = {}
        for sid, name, _trace, parent, start, end, concurrent in spans:
            if root is not None:
                inside[sid] = name == root or (
                    parent is not None and inside[parent]
                )
                if not inside[sid]:
                    continue
            row = out.setdefault(name, [0.0, 0, 0.0])
            duration = end - start
            row[1] += 1
            if concurrent:
                row[0] += duration
                row[2] += duration
                continue
            row[0] += (duration - child_cover[sid] - self.cost_inside_s
                       - children[sid] * self.cost_outside_s)
            row[2] += duration - self.cost_inside_s - below[sid] * each
        return out

    def dump_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the number written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, trace, parent, start, end, concurrent in spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "trace": trace, "parent": parent,
                    "start": start, "end": end, "concurrent": concurrent,
                }) + "\n")
        return len(spans)


def budget_lines(
    self_seconds: dict[str, float], root: str, units: float,
    untraced_unit: float, traced_unit: float,
) -> list[tuple[str, float, float]]:
    """The budget table: ``(line, seconds of one unit, share of the untraced)``.

    ``self_seconds`` are the traced run's self times under span ``root``,
    summed over ``units`` units.  Every layer line is that layer's traced
    self time per unit.  ``unattributed`` is what is left of the *untraced*
    unit time once the layer lines are taken from it — (untraced total −
    Σ layer self times): loop glue under the root span, program code no
    span covers, and whatever the two runs' host speeds differ by.  The
    lines plus ``unattributed`` therefore sum to the untraced total; what
    the spans themselves cost is the last line, outside the sum.
    """
    rows = sorted(
        ((n, s / units) for n, s in self_seconds.items() if n != root),
        key=lambda kv: -kv[1],
    )
    rows.append(("unattributed", untraced_unit - sum(s for _n, s in rows)))
    out = [(name, secs, secs / untraced_unit) for name, secs in rows]
    out.append(("= untraced total", untraced_unit, 1.0))
    over = traced_unit - untraced_unit
    out.append(("trace overhead (traced - untraced)", over, over / untraced_unit))
    return out
