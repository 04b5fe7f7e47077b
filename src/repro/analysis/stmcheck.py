"""Pass 3: Space-Time Memory protocol analysis (rules ``P001``-``P004``).

STM channels are timestamp-indexed streams with optional capacity bounds;
their failure modes are protocol-level, not structural: a bounded channel
whose producer outruns a slow consumer blocks (back-pressure), items with
no consumer are never garbage-collected (the STM collects an item only
once every consumer consumed it), and non-blocking ``try_get`` silently
misses items that arrive *born-consumed* when a sibling consumer has
already skipped past them.

This pass works on the declaration level (graph wiring plus, when given, a
pipelined schedule that bounds how many items are in flight), so it runs
off-line in microseconds — the dynamic complement is pass 4
(:mod:`repro.analysis.race`).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.findings import AnalysisReport
from repro.core.optimal import ScheduleSolution
from repro.graph.taskgraph import TaskGraph

__all__ = ["check_stm", "schedule_in_flight"]

_EPS = 1e-9


def schedule_in_flight(
    graph: TaskGraph, solution: ScheduleSolution
) -> dict[str, int]:
    """Schedule-derived live-item count per streaming channel.

    Item k of a channel is live from its producer's end until the last
    consumer's end, k*II later for each successive timestamp — the
    estimate ``P002`` gates on, and the slip-free capacity bound the
    model checker's M003 certificates quote.  Channels whose producer or
    consumers are missing from the schedule are omitted (malformed
    schedules are pass-2 findings).
    """
    out: dict[str, int] = {}
    sched = solution.iteration
    period = solution.period
    if period <= _EPS:
        return out
    for ch in _streaming_channels(graph):
        prods = [t.name for t in graph.producers(ch.name)]
        cons = [t.name for t in graph.consumers(ch.name)]
        if not prods or not cons:
            continue
        if any(t not in sched for t in (*prods, *cons)):
            continue
        produced = min(sched.placement(p).end for p in prods)
        drained = max(sched.placement(c).end for c in cons)
        out[ch.name] = int((drained - produced + _EPS) / period) + 1
    return out


def _in_flight_for(
    graph: TaskGraph, solution: ScheduleSolution, report: AnalysisReport
) -> dict[str, int]:
    """:func:`schedule_in_flight`, once per solution and graph wiring per report.

    ``P002`` and ``M003`` read the same counts for every entry of a table;
    the first to ask computes them and files them in ``report``, the
    second finds them there unless the graph was re-wired in between.
    """
    seen = (graph, graph.tasks, graph.channels)
    held = report._in_flight.get(id(solution))
    if held is not None and held[0] is solution and held[1] == seen:
        return held[2]
    live = schedule_in_flight(graph, solution)
    report._in_flight[id(solution)] = (solution, seen, live)
    return live


def _streaming_channels(graph: TaskGraph):
    return [ch for ch in graph.channels if not ch.static]


def _sccs(nodes: list[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components (iterative Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def check_stm(
    graph: TaskGraph,
    solution: Optional[ScheduleSolution] = None,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Analyze the STM protocol implied by ``graph`` (and optionally a schedule).

    Without a ``solution`` only the wiring-level rules run (wait cycles,
    consume leaks, born-consumed hazards); with one, the schedule bounds
    each channel's in-flight item count and ``P002`` checks it against the
    declared capacity.  The wiring rules never read the solution, so a
    ``report`` that already holds their findings for this graph as it is
    wired now — a table ``verify`` calls this once per entry — gets only
    ``P002`` added; a graph edited since is analyzed afresh.
    """
    report = report if report is not None else AnalysisReport()
    loc = f"graph:{graph.name}"
    streaming = _streaming_channels(graph)
    # All the wiring rules read: the graph's tasks (fixed once built, so
    # compared by identity) and channel specs (compared by value).
    seen = (graph, graph.tasks, graph.channels)
    wiring = seen not in report._stm_wiring
    if wiring:
        report._stm_wiring.append(seen)
        _wait_cycles(graph, streaming, loc, report)
    if solution is not None:
        _capacity(graph, solution, streaming, loc, report)
    if wiring:
        _consumers(graph, streaming, loc, report)
    return report


def _wait_cycles(graph, streaming, loc, report) -> None:
    """P001 over the wait-for graph."""
    # Get-waits (consumer -> producer) plus capacity back-pressure
    # (producer -> consumer, bounded channels only).
    edges: dict[str, set[str]] = {t.name: set() for t in graph.tasks}
    edge_channels: dict[tuple[str, str], set[str]] = {}
    for ch in streaming:
        prods = [t.name for t in graph.producers(ch.name)]
        cons = [t.name for t in graph.consumers(ch.name)]
        for p in prods:
            for c in cons:
                edges[c].add(p)
                edge_channels.setdefault((c, p), set()).add(ch.name)
                if ch.capacity is not None:
                    edges[p].add(c)
                    edge_channels.setdefault((p, c), set()).add(ch.name)

    # P001 — a cycle whose waits span more than one channel can deadlock.
    # The single-channel producer<->consumer 2-cycle on a bounded channel
    # is ordinary flow control and is excluded.
    for comp in _sccs(list(edges), edges):
        if len(comp) < 2:
            continue
        members = set(comp)
        channels: set[str] = set()
        for (a, b), chs in edge_channels.items():
            if a in members and b in members:
                channels.update(chs)
        if len(channels) >= 2:
            report.add(
                "P001",
                f"{loc}/tasks:{'+'.join(sorted(comp))}",
                f"tasks {sorted(comp)} wait on each other through channels "
                f"{sorted(channels)}; bounded back-pressure plus get-waits "
                "can deadlock",
            )


def _capacity(graph, solution, streaming, loc, report) -> None:
    """P002 — the one rule here that reads the schedule."""
    # Schedule-derived in-flight count vs declared capacity.  Item k of a
    # channel is live from its producer's end until the last consumer's
    # end, k*II later for each successive timestamp.
    live = _in_flight_for(graph, solution, report)
    for ch in streaming:
        if ch.capacity is None or ch.name not in live:
            continue
        in_flight = live[ch.name]
        if in_flight > ch.capacity:
            report.add(
                "P002",
                f"{loc}/channel:{ch.name}",
                f"schedule keeps {in_flight} items of {ch.name!r} in "
                f"flight (II={solution.period:g}s) but capacity is "
                f"{ch.capacity}",
            )


def _consumers(graph, streaming, loc, report) -> None:
    """P003 and P004 over each channel's consumer set."""
    # P003 — produced-never-consumed channels leak items forever.  Terminal
    # outputs of sink tasks are exempt: every runtime drains those with
    # implicit collectors (they are the application's results).
    for ch in streaming:
        prods = graph.producers(ch.name)
        if not prods or graph.consumers(ch.name):
            continue
        producer = prods[0]
        other_consumed = [
            out
            for out in producer.outputs
            if out != ch.name
            and not graph.channel(out).static
            and graph.consumers(out)
        ]
        if other_consumed:
            report.add(
                "P003",
                f"{loc}/channel:{ch.name}",
                f"channel {ch.name!r} is produced by {producer.name!r} but "
                "consumed by nothing, while its sibling outputs "
                f"{other_consumed} are consumed; its items are never "
                "garbage-collected",
            )

    # P004 — concurrent consumers make born-consumed try_get misses
    # possible.  Two consumers are concurrent when neither precedes the
    # other in the streaming precedence relation.
    try:
        order = graph.topo_order()
    except Exception:
        return  # cyclic graphs are pass-1 findings (G001)
    ancestors: dict[str, set[str]] = {}
    for name in order:
        anc: set[str] = set()
        for p in graph.predecessors(name):
            anc.add(p)
            anc |= ancestors[p]
        ancestors[name] = anc
    for ch in streaming:
        cons = [t.name for t in graph.consumers(ch.name)]
        flagged = False
        for i, a in enumerate(cons):
            for b in cons[i + 1 :]:
                if a not in ancestors[b] and b not in ancestors[a]:
                    report.add(
                        "P004",
                        f"{loc}/channel:{ch.name}",
                        f"consumers {a!r} and {b!r} of {ch.name!r} are "
                        "concurrent; a faster one can consume past a "
                        "timestamp the other has not seen, so try_get "
                        "there returns born-consumed misses",
                    )
                    flagged = True
                    break
            if flagged:
                break
