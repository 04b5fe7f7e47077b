"""Persistence for schedules and schedule tables.

The paper's workflow separates an off-line phase ("we pre-compute the
optimal schedule for each of the states"; the result "will be operating
for months") from the on-line switcher.  That separation needs an
artifact: this module serializes iteration schedules, pipelined schedules
and whole per-state tables to JSON, so the expensive enumeration runs once
and ships with the application.

Round-tripping preserves everything the runtime needs (placements,
variants, periods, shifts, per-state latencies); re-solving is never
required to *execute*.  Loading re-validates shapes and raises
:class:`~repro.errors.ScheduleError` on malformed input rather than
producing a half-built schedule — a wrongly typed field, a table that is
not a JSON object, or one that lists a state twice.

A table is written as ``json.dumps(payload, indent=2)`` would write it,
byte for byte, but not by ``json``: an indent switches the standard
library's C encoder off, and its pure-Python fallback was once the largest
single cost of rebuilding a table from the cache.  :func:`table_to_json`
emits the same text directly — strings through ``json``'s own C
``encode_basestring_ascii``, floats through ``float.__repr__`` with
``json``'s ``NaN`` / ``Infinity`` spellings, ints through ``int.__repr__``
(``tests/core/test_serialize_golden.py`` holds ``json.dumps`` as the
oracle).  It builds :func:`solution_to_dict`'s payload, with each
schedule's placement list, the bulk of the text, spelled as text by a
direct emitter instead of built as dicts.

A solution and its pipelined form share one :class:`IterationSchedule`
(the solver builds them so), and loading keeps it so: when an entry's
``pipelined.iteration`` dict equals its ``iteration`` dict,
:func:`solution_from_dict` builds one schedule for both fields.  The
writer spells a shared schedule's placements once and puts the text in
both places, re-indented.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional

from repro.errors import ScheduleError
from repro.core.schedule import (
    GapCertificate,
    IterationSchedule,
    PipelinedSchedule,
    Placement,
    ScheduleSolution,
)
from repro.core.table import ScheduleTable
from repro.state import State

__all__ = [
    "iteration_to_dict",
    "iteration_from_dict",
    "pipelined_to_dict",
    "pipelined_from_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "table_to_json",
    "table_from_json",
]

_FORMAT_VERSION = 1

#: Gives an iteration schedule's ``"placements"`` value.
_Placements = Callable[[IterationSchedule], Any]


def _require(data: dict, key: str, context: str) -> Any:
    try:
        return data[key]
    except (KeyError, TypeError):
        raise ScheduleError(f"malformed {context}: missing {key!r}") from None


# ---------------------------------------------------------------------------
# Iteration schedules
# ---------------------------------------------------------------------------


def iteration_to_dict(schedule: IterationSchedule) -> dict:
    """JSON-safe representation of a single-iteration schedule."""
    return _iteration_dict(schedule, _placement_dicts)


# The ``_*_dict`` builders below take ``placements``, the function that
# gives an iteration's ``"placements"`` value: the public ``*_to_dict``
# hand in :func:`_placement_dicts`, and :func:`table_to_json` the text of
# the list (:func:`_placements_text`).  A field added to an entry is added
# here once and reaches both.


def _iteration_dict(schedule: IterationSchedule, placements: _Placements) -> dict:
    return {"name": schedule.name, "placements": placements(schedule)}


def _placement_dicts(schedule: IterationSchedule) -> list[dict]:
    return [_placement_dict(p) for p in schedule.placements]


def _placement_dict(p: Placement) -> dict:
    # _PLACEMENT spells these keys, in this order, for table_to_json.
    return {
        "task": p.task,
        "procs": list(p.procs),
        "start": p.start,
        "duration": p.duration,
        "variant": p.variant,
    }


def iteration_from_dict(data: dict) -> IterationSchedule:
    """Rebuild an :class:`IterationSchedule` (validates placement shape)."""
    placements = []
    for raw in _require(data, "placements", "iteration schedule"):
        placements.append(
            Placement(
                task=_require(raw, "task", "placement"),
                procs=tuple(_require(raw, "procs", "placement")),
                start=float(_require(raw, "start", "placement")),
                duration=float(_require(raw, "duration", "placement")),
                variant=raw.get("variant", "serial"),
            )
        )
    return IterationSchedule(placements, name=data.get("name", "loaded"))


# ---------------------------------------------------------------------------
# Pipelined schedules and solutions
# ---------------------------------------------------------------------------


def pipelined_to_dict(schedule: PipelinedSchedule) -> dict:
    """JSON-safe representation of a pipelined (multi-iteration) schedule."""
    return _pipelined_dict(schedule, _placement_dicts)


def _pipelined_dict(schedule: PipelinedSchedule, placements: _Placements) -> dict:
    return {
        "iteration": _iteration_dict(schedule.iteration, placements),
        "period": schedule.period,
        "shift": schedule.shift,
        "n_procs": schedule.n_procs,
        "name": schedule.name,
    }


def pipelined_from_dict(data: dict) -> PipelinedSchedule:
    """Rebuild a :class:`PipelinedSchedule`."""
    return _pipelined_from_dict(data)


def _pipelined_from_dict(
    data: dict, shared: Optional[tuple[dict, IterationSchedule]] = None
) -> PipelinedSchedule:
    """:func:`pipelined_from_dict`; ``shared`` is an iteration already
    rebuilt, with the dict it was rebuilt from, and the schedule holds that
    object when its own ``iteration`` dict equals that one."""
    raw = _require(data, "iteration", "pipelined schedule")
    if shared is not None and raw == shared[0]:
        iteration = shared[1]
    else:
        iteration = iteration_from_dict(raw)
    return PipelinedSchedule(
        iteration=iteration,
        period=float(_require(data, "period", "pipelined schedule")),
        shift=int(_require(data, "shift", "pipelined schedule")),
        n_procs=int(_require(data, "n_procs", "pipelined schedule")),
        name=data.get("name", "loaded"),
    )


def certificate_to_dict(cert: GapCertificate) -> dict:
    """JSON-safe representation of an optimality-gap certificate."""
    return {
        "policy": cert.policy,
        "epsilon": cert.epsilon,
        "lower_bound": cert.lower_bound,
        "root_bound": cert.root_bound,
        "gap_bound": cert.gap_bound,
        "dp_cap": cert.dp_cap,
    }


def certificate_from_dict(data: dict) -> GapCertificate:
    """Rebuild a :class:`GapCertificate`."""
    return GapCertificate(
        policy=str(_require(data, "policy", "gap certificate")),
        epsilon=float(_require(data, "epsilon", "gap certificate")),
        lower_bound=float(_require(data, "lower_bound", "gap certificate")),
        root_bound=float(_require(data, "root_bound", "gap certificate")),
        gap_bound=float(_require(data, "gap_bound", "gap certificate")),
        dp_cap=int(data.get("dp_cap", 0)),
    )


def solution_to_dict(solution: ScheduleSolution) -> dict:
    """JSON-safe representation of a full per-state solution."""
    return _solution_dict(solution, _placement_dicts)


def _solution_dict(solution: ScheduleSolution, placements: _Placements) -> dict:
    out = {
        "state": dict(solution.state),
        "iteration": _iteration_dict(solution.iteration, placements),
        "pipelined": _pipelined_dict(solution.pipelined, placements),
        "alternatives": solution.alternatives,
        "explored": solution.explored,
    }
    if solution.certificate is not None:
        out["certificate"] = certificate_to_dict(solution.certificate)
    return out


def solution_from_dict(data: dict) -> ScheduleSolution:
    """Rebuild a :class:`ScheduleSolution` (certificate key is optional).

    A field of the wrong type anywhere inside — a state that is not an
    object, ``procs`` that is not a list, a non-numeric ``start`` — raises
    :class:`~repro.errors.ScheduleError`, like a missing one.  When the
    ``pipelined`` schedule's ``iteration`` dict equals the entry's
    ``iteration`` dict (the solver shares one object, so every entry it
    wrote), both fields hold one rebuilt :class:`IterationSchedule`.
    """
    try:
        state_vars = _require(data, "state", "solution")
        raw_cert = data.get("certificate")
        state = State(**state_vars)
        raw_iteration = _require(data, "iteration", "solution")
        iteration = iteration_from_dict(raw_iteration)
        return ScheduleSolution(
            state=state,
            iteration=iteration,
            pipelined=_pipelined_from_dict(
                _require(data, "pipelined", "solution"), (raw_iteration, iteration)
            ),
            alternatives=int(data.get("alternatives", 1)),
            explored=int(data.get("explored", 0)),
            certificate=certificate_from_dict(raw_cert) if raw_cert else None,
        )
    except (AttributeError, TypeError, ValueError) as err:
        raise ScheduleError(f"malformed solution: {err}") from None


# ---------------------------------------------------------------------------
# Whole tables
# ---------------------------------------------------------------------------


def table_to_json(table: ScheduleTable) -> str:
    """Serialize a whole per-state table to a JSON string.

    The text is ``json.dumps(payload, indent=2)``'s, byte for byte, where
    the payload holds :func:`solution_to_dict` of every entry.  Each
    schedule's placements are written once, as text
    (:func:`_placements_text`): a solution and its pipelined form that
    share a schedule share that text.
    """
    texts: dict[IterationSchedule, _Text] = {}

    def placements(schedule: IterationSchedule) -> _Text:
        text = texts.get(schedule)
        if text is None:
            text = texts[schedule] = _Text(_placements_text(schedule))
        return text

    payload = {
        "format": "repro.schedule_table",
        "version": _FORMAT_VERSION,
        "entries": [_solution_dict(sol, placements) for sol in table.solutions()],
    }
    return _dumps(payload)


def table_from_json(text: str) -> ScheduleTable:
    """Deserialize a per-state table from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScheduleError(f"schedule table is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ScheduleError(
            f"not a schedule table (a JSON {type(payload).__name__}, not an object)"
        )
    if payload.get("format") != "repro.schedule_table":
        raise ScheduleError(
            f"not a schedule table (format={payload.get('format')!r})"
        )
    if payload.get("version") != _FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported table version {payload.get('version')!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    entries = _require(payload, "entries", "schedule table")
    if not isinstance(entries, list):
        raise ScheduleError(
            f"malformed schedule table: 'entries' is a {type(entries).__name__}, "
            "not a list"
        )
    solutions = {}
    for entry in entries:
        sol = solution_from_dict(entry)
        if sol.state in solutions:
            raise ScheduleError(f"schedule table lists {sol.state!r} twice")
        solutions[sol.state] = sol
    return ScheduleTable(solutions)


# ---------------------------------------------------------------------------
# The indented JSON emitter
# ---------------------------------------------------------------------------

_INF = float("inf")


def _float_text(value: float) -> str:
    """``json``'s spelling of a float (``allow_nan`` is its default, true)."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key: Any) -> str:
    """A dict key as ``json`` writes it: coerced to a string, then quoted."""
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _float_text(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    return encode_basestring_ascii(text)


def _dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, written without ``json``'s encoder.

    One recursive walk appends text pieces to a list.  The exact types that
    make up nearly all of a table payload are tested first, by identity;
    everything else (``None``, bools, tuples, subclasses) takes ``json``'s
    own ``isinstance`` order, so a subclass is spelled as ``json`` spells
    it.  Unlike ``json`` there is no circular-reference check — a payload
    built by :func:`solution_to_dict` has no cycles.  A :class:`_Text` is
    written as its text, re-indented for the depth it sits at.
    """
    parts: list[str] = []
    append = parts.append
    breaks = ["\n"]  # breaks[d]: newline plus the indent of depth d

    def array(items, depth: int) -> None:
        if not items:
            append("[]")
            return
        if len(breaks) <= depth + 1:
            breaks.append(breaks[-1] + "  ")
        head = "[" + breaks[depth + 1]
        sep = "," + breaks[depth + 1]
        for item in items:
            append(head)
            head = sep
            value(item, depth + 1)
        append(breaks[depth] + "]")

    def mapping(items, depth: int) -> None:
        if not items:
            append("{}")
            return
        if len(breaks) <= depth + 1:
            breaks.append(breaks[-1] + "  ")
        head = "{" + breaks[depth + 1]
        sep = "," + breaks[depth + 1]
        for key, item in items.items():
            key = encode_basestring_ascii(key) if type(key) is str else _key_text(key)
            append(head + key + ": ")
            head = sep
            value(item, depth + 1)
        append(breaks[depth] + "}")

    def value(o: Any, depth: int) -> None:
        kind = type(o)
        if kind is str:
            append(encode_basestring_ascii(o))
        elif kind is float:
            append(_float_text(o))
        elif kind is int:
            append(int.__repr__(o))
        elif kind is dict:
            mapping(o, depth)
        elif kind is list:
            array(o, depth)
        elif kind is _Text:
            append(o.text.replace("\n", breaks[depth]))
        elif isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            append(_float_text(o))
        elif isinstance(o, (list, tuple)):
            array(o, depth)
        elif isinstance(o, dict):
            mapping(o, depth)
        else:
            raise TypeError(
                f"Object of type {kind.__name__} is not JSON serializable"
            )

    value(obj, 0)
    return "".join(parts)


class _Text:
    """JSON text written at depth 0, which :func:`_dumps` puts in verbatim."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


# A placement object as an item of a list at depth 0, its five values as
# ``%s`` (the keys of :func:`_placement_dict`), and the pieces of a
# ``procs`` list at depth 2.
_PLACEMENT = (
    '{\n    "task": %s,\n    "procs": %s,\n    "start": %s,'
    '\n    "duration": %s,\n    "variant": %s\n  }'
)
_PROCS_HEAD, _PROCS_SEP, _PROCS_TAIL = "[\n      ", ",\n      ", "\n    ]"


def _placements_text(schedule: IterationSchedule) -> str:
    """:func:`_placement_dicts` of ``schedule`` as :func:`_dumps` writes it.

    The placements are where a table's text goes, so they are spelled here
    directly; a placement holding any value that is not exactly a str,
    float or int (an int ``start``, a numpy scalar) goes through
    :func:`_dumps`, which spells it as ``json`` does.
    """
    items = []
    for p in schedule.placements:
        task, procs, start, duration, variant = (
            p.task, p.procs, p.start, p.duration, p.variant
        )
        if (
            type(start) is float and type(duration) is float
            and type(task) is str and type(variant) is str
            and all(type(q) is int for q in procs)
        ):
            items.append(_PLACEMENT % (
                encode_basestring_ascii(task),
                _PROCS_HEAD + _PROCS_SEP.join(map(int.__repr__, procs)) + _PROCS_TAIL
                if procs else "[]",
                _float_text(start),
                _float_text(duration),
                encode_basestring_ascii(variant),
            ))
        else:
            items.append(_dumps(_placement_dict(p)).replace("\n", "\n  "))
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"
