"""Rendering task graphs as indented ASCII.

Purely presentational: experiments and examples print these so a reader can
check the graph against Figure 2 of the paper without any plotting
dependency.
"""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph

__all__ = ["to_ascii"]


def to_ascii(graph: TaskGraph) -> str:
    """Topologically ordered listing: one task per line with its channels.

    >>> from repro.graph.builders import chain_graph
    >>> print(to_ascii(chain_graph([1.0, 2.0])))
    graph 'chain' (2 tasks, 1 channels)
      t0: [] -> [c0]
      t1: [c0] -> []
    """
    lines = [
        f"graph {graph.name!r} ({len(graph.tasks)} tasks, {len(graph.channels)} channels)"
    ]
    for name in graph.topo_order():
        t = graph.task(name)
        ins = ", ".join(t.inputs)
        outs = ", ".join(t.outputs)
        lines.append(f"  {name}: [{ins}] -> [{outs}]")
    return "\n".join(lines)
