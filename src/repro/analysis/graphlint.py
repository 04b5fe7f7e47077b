"""Pass 1: structural lint of a task graph (rules ``G001``-``G011``).

Unlike :meth:`TaskGraph.validate`, which raises on the first structural
problem, the linter keeps going and reports *every* problem as a
:class:`~repro.analysis.findings.Finding` — including shape-level smells
(orphan channels, dominated variants) that are legal but suspicious and so
never turn into runtime exceptions.

The linter never assumes the graph validates: all connectivity is
re-derived against the declared channel set, so a graph with undeclared
channels or cycles still produces a complete report instead of an
exception.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.findings import AnalysisReport, Severity
from repro.graph.taskgraph import TaskGraph
from repro.state import State

__all__ = ["lint_graph"]

_EPS = 1e-9


def lint_graph(
    graph: TaskGraph,
    states: Optional[Iterable[State]] = None,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Lint ``graph``, optionally against every state in ``states``.

    State-dependent rules (size models G007, chunk widths G010, dominated
    variants G011) only run when ``states`` is given — pass the
    application's :class:`~repro.state.StateSpace`.
    """
    report = report if report is not None else AnalysisReport()
    states = list(states) if states is not None else []
    loc = f"graph:{graph.name}"
    declared = set(graph.channel_names)

    tasks = graph.tasks

    # G002 — undeclared channels.  Track them so connectivity below only
    # follows declared edges (an undeclared channel has no spec to consult).
    for task in tasks:
        for ch in (*task.inputs, *task.outputs):
            if ch not in declared:
                report.add(
                    "G002",
                    f"{loc}/task:{task.name}",
                    f"task {task.name!r} references undeclared channel {ch!r}",
                )

    # G003/G004/G005/G008 — per-channel wiring, from the producers and
    # consumers the graph keeps.  Consumer names are kept for the successor
    # relation below.
    consumers: dict[str, list[str]] = {}
    for ch in graph.channels:
        prods = [t.name for t in graph.producers(ch.name)]
        cons = consumers[ch.name] = [t.name for t in graph.consumers(ch.name)]
        cloc = f"{loc}/channel:{ch.name}"
        if not prods and not cons:
            report.add(
                "G005", cloc, f"channel {ch.name!r} has no producer and no consumer"
            )
            continue
        if ch.static:
            if prods:
                report.add(
                    "G008",
                    cloc,
                    f"static channel {ch.name!r} is produced by "
                    f"{', '.join(map(repr, prods))}",
                )
            continue
        if not prods and cons:
            report.add(
                "G003",
                cloc,
                f"streaming channel {ch.name!r} is consumed by "
                f"{', '.join(map(repr, cons))} but produced by nothing",
            )
        if len(prods) > 1:
            report.add(
                "G004",
                cloc,
                f"streaming channel {ch.name!r} has {len(prods)} producers: "
                f"{', '.join(map(repr, prods))}",
            )

    # Streaming successor relation over *declared* channels only.
    succs: dict[str, list[str]] = {t.name: [] for t in tasks}
    for task in tasks:
        for ch in task.outputs:
            if ch not in declared or graph.channel(ch).static:
                continue
            for c in consumers[ch]:
                if c not in succs[task.name]:
                    succs[task.name].append(c)

    # G001 — cycles, via Kahn's algorithm on the local relation.
    indeg = {n: 0 for n in succs}
    for n, ss in succs.items():
        for s in ss:
            indeg[s] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    reached_order: list[str] = []
    while ready:
        n = ready.pop()
        reached_order.append(n)
        for s in succs[n]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(reached_order) != len(succs):
        stuck = sorted(set(succs) - set(reached_order))
        report.add(
            "G001",
            loc,
            f"streaming precedence has a cycle among tasks {stuck}",
        )

    # G006 — tasks unreachable from any source.  Sources are tasks with no
    # streaming inputs; skip when a cycle exists (everything downstream of
    # the cycle would double-report).
    sources = {
        t.name
        for t in tasks
        if not t.inputs
        or all(ch in declared and graph.channel(ch).static for ch in t.inputs)
    }
    if len(reached_order) == len(succs):
        reachable = set(sources)
        frontier = list(sources)
        while frontier:
            n = frontier.pop()
            for s in succs[n]:
                if s not in reachable:
                    reachable.add(s)
                    frontier.append(s)
        for t in tasks:
            if t.name not in reachable:
                report.add(
                    "G006",
                    f"{loc}/task:{t.name}",
                    f"task {t.name!r} can never receive data from any source",
                )

    # G007 — size-model totality over the state space.
    for ch in graph.channels:
        for state in states:
            try:
                ch.item_size(state)
            except Exception as exc:
                report.add(
                    "G007",
                    f"{loc}/channel:{ch.name}",
                    f"size model of {ch.name!r} fails for {state!r}: {exc}",
                )
                break  # one finding per channel is enough

    # G009/G010/G011 — data-parallel consistency.
    for task in tasks:
        tloc = f"{loc}/task:{task.name}"
        spec = task.data_parallel
        if spec is None:
            if task.compute_chunk is not None:
                report.add(
                    "G009",
                    tloc,
                    f"task {task.name!r} has chunk kernels but no "
                    "DataParallelSpec; they can never run",
                )
            continue
        if task.compute is not None and task.compute_chunk is None:
            report.add(
                "G009",
                tloc,
                f"task {task.name!r} has a DataParallelSpec and a serial "
                "kernel but no chunk kernels; dp placements silently fall "
                "back to serial execution on the process runtime",
            )
        for w in spec.worker_counts:
            if w == 1:
                continue
            narrow_states = []
            dominated = bool(states)
            for state in states:
                try:
                    n_chunks = spec.chunks_for(state, w) if spec.chunks_for else w
                except Exception as exc:
                    report.add(
                        "G010",
                        tloc,
                        f"chunks_for of {task.name!r} fails for "
                        f"(workers={w}, {state!r}): {exc}",
                        severity=Severity.ERROR,
                    )
                    dominated = False
                    break
                if n_chunks < w:
                    narrow_states.append(state)
                try:
                    dp_dur = spec.duration(task, state, w)
                    serial = task.cost(state)
                except Exception:
                    dominated = False
                    continue
                if dp_dur < serial - _EPS:
                    dominated = False
            if narrow_states:
                report.add(
                    "G010",
                    tloc,
                    f"variant dp{w} of {task.name!r} produces fewer chunks "
                    f"than workers in {len(narrow_states)} state(s), e.g. "
                    f"{narrow_states[0]!r}; scheduled processors sit idle",
                )
            if dominated:
                report.add(
                    "G011",
                    tloc,
                    f"variant dp{w} of {task.name!r} is never faster than "
                    "serial anywhere in the state space",
                )
    return report
