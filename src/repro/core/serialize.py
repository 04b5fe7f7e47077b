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
library's C encoder off, and its pure-Python fallback was the largest
single cost of rebuilding a table from the cache.  :func:`table_to_json`
emits the same text directly — strings through ``json``'s own C
``encode_basestring_ascii``, floats through ``float.__repr__`` with
``json``'s ``NaN`` / ``Infinity`` spellings, ints through ``int.__repr__``
(``tests/core/test_serialize_golden.py`` holds ``json.dumps`` as the
oracle).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.errors import ScheduleError
from repro.core.optimal import GapCertificate, ScheduleSolution
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
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
    return {
        "name": schedule.name,
        "placements": [
            {
                "task": p.task,
                "procs": list(p.procs),
                "start": p.start,
                "duration": p.duration,
                "variant": p.variant,
            }
            for p in schedule.placements
        ],
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
    return {
        "iteration": iteration_to_dict(schedule.iteration),
        "period": schedule.period,
        "shift": schedule.shift,
        "n_procs": schedule.n_procs,
        "name": schedule.name,
    }


def pipelined_from_dict(data: dict) -> PipelinedSchedule:
    """Rebuild a :class:`PipelinedSchedule`."""
    return PipelinedSchedule(
        iteration=iteration_from_dict(_require(data, "iteration", "pipelined schedule")),
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
    out = {
        "state": dict(solution.state),
        "iteration": iteration_to_dict(solution.iteration),
        "pipelined": pipelined_to_dict(solution.pipelined),
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
    :class:`~repro.errors.ScheduleError`, like a missing one.
    """
    try:
        state_vars = _require(data, "state", "solution")
        raw_cert = data.get("certificate")
        return ScheduleSolution(
            state=State(**state_vars),
            iteration=iteration_from_dict(_require(data, "iteration", "solution")),
            pipelined=pipelined_from_dict(_require(data, "pipelined", "solution")),
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

    The text is ``json.dumps(payload, indent=2)``'s, byte for byte.
    """
    payload = {
        "format": "repro.schedule_table",
        "version": _FORMAT_VERSION,
        "entries": [solution_to_dict(sol) for sol in table.solutions()],
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
    built by :func:`solution_to_dict` has no cycles.
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
