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

A table file is compact standard-library JSON:
``json.dumps(payload, separators=(",", ":"))``, the spelling
:class:`~repro.core.cache.ScheduleCache` uses for its entries, written by
``json``'s C encoder.  The payload holds :func:`solution_to_dict` of every
entry.  :func:`table_from_json` reads any JSON spelling of that payload,
so the indented files earlier builds wrote still load.

A solution and its pipelined form share one :class:`IterationSchedule`
(the solver builds them so), and loading keeps it so: when an entry's
``pipelined.iteration`` dict equals its ``iteration`` dict,
:func:`solution_from_dict` builds one schedule for both fields.
"""

from __future__ import annotations

import json
from typing import Any, Optional

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
    return _solution_dict(solution)


# table_to_json calls this, not the module attribute solution_to_dict: a
# wrapper on that name (a tracer's per-entry dump span) would otherwise
# nest inside a caller's span of the same name around the whole table dump.
def _solution_dict(solution: ScheduleSolution) -> dict:
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
    """Serialize a whole per-state table to a compact JSON string."""
    payload = {
        "format": "repro.schedule_table",
        "version": _FORMAT_VERSION,
        "entries": [_solution_dict(sol) for sol in table.solutions()],
    }
    return json.dumps(payload, separators=(",", ":"))


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
