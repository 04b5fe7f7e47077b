"""Pass 3: Space-Time Memory channel wiring (rules ``P003`` and ``P004``).

STM channels are timestamp-indexed streams; items with no consumer are
never garbage-collected (the STM collects an item only once every
consumer consumed it), and non-blocking ``try_get`` silently misses items
that arrive *born-consumed* when a sibling consumer has already skipped
past them.  Both are properties of the graph's wiring alone, so this pass
runs off-line in microseconds.  Whether a configuration deadlocks or
wedges on capacity is pass 5's verdict (:mod:`repro.analysis.model`),
confirmed on real threads by :func:`~repro.analysis.replay.replay_trace`.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.findings import AnalysisReport
from repro.graph.taskgraph import TaskGraph

__all__ = ["check_stm"]


def check_stm(
    graph: TaskGraph, report: Optional[AnalysisReport] = None
) -> AnalysisReport:
    """Analyze the STM channel wiring of ``graph``: ``P003`` and ``P004``."""
    report = report if report is not None else AnalysisReport()
    loc = f"graph:{graph.name}"
    streaming = [ch for ch in graph.channels if not ch.static]

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
        return report  # cyclic graphs are pass-1 findings (G001)
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
    return report
