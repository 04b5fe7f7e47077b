"""The mutable degraded view of a cluster.

:class:`~repro.sim.cluster.ClusterSpec` is immutable — it describes a
*shape*.  During a faulty run the physical cluster drifts away from its
nominal shape; :class:`ClusterView` tracks that drift: which physical
processors are dead, which nodes are slowed, and what the surviving
*shape* currently is (:meth:`shape`), plus the mapping from that shape's
dense processor indices back to physical processors
(:meth:`shape_to_physical`).

The view is the single source of truth every fault-aware component reads:

* the injector mutates it,
* heartbeats consult it (a dead node stops beating),
* the failover controller reads the surviving shape off it, and
* the fault runner subscribes to its changes (:meth:`ClusterView.on_change`)
  and reads ``dead_procs``, to model work lost mid-placement.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ClusterError, FaultError
from repro.sim.cluster import ClusterSpec, Processor

__all__ = ["ClusterView"]


class ClusterView:
    """Live, mutable failure state layered over an immutable ClusterSpec.

    Processor indices used with a view are always *physical* (the base
    cluster's global indices); degraded-shape indices exist only inside
    :meth:`shape` / :meth:`shape_to_physical`.
    """

    def __init__(self, base: ClusterSpec) -> None:
        self.base = base
        self.dead_nodes: set[int] = set()
        self.dead_procs: set[int] = set()  # physical indices, incl. crashed nodes'
        self.slow_factors: dict[int, float] = {}  # node -> multiplier
        self._on_change: list[Callable[[str, int], None]] = []

    # -- queries --------------------------------------------------------------

    def node_alive(self, node: int) -> bool:
        """True while ``node`` has not crashed."""
        if not 0 <= node < self.base.nodes:
            raise ClusterError(f"node index {node} out of range 0..{self.base.nodes - 1}")
        return node not in self.dead_nodes

    def alive(self, proc: int) -> bool:
        """True while physical processor ``proc`` is up."""
        self.base.processor(proc)  # range check
        return proc not in self.dead_procs

    def alive_processors(self) -> list[Processor]:
        """Physical processors currently up, in index order."""
        return [p for p in self.base.processors if p.index not in self.dead_procs]

    def speed(self, proc: int) -> float:
        """Current speed of physical processor ``proc`` (slowdowns applied)."""
        p = self.base.processor(proc)
        return p.speed * self.slow_factors.get(p.node, 1.0)

    # -- mutation (the injector's surface) ------------------------------------

    def on_change(self, fn: Callable[[str, int], None]) -> None:
        """Register ``fn(kind, target)`` to run after every mutation.

        ``kind`` is ``"crash" | "proc-loss" | "slowdown" | "recovery"``;
        ``target`` is the node index (``proc-loss``: the processor index).
        """
        self._on_change.append(fn)

    def kill_node(self, node: int) -> None:
        """Crash ``node``: all of its processors die now (idempotent)."""
        if not self.node_alive(node):
            return
        self.dead_nodes.add(node)
        for p in self.base.node_processors(node):
            self.dead_procs.add(p.index)
        self._notify("crash", node)

    def kill_processor(self, proc: int) -> None:
        """Kill one physical processor (idempotent)."""
        if not self.alive(proc):
            return
        self.dead_procs.add(proc)
        self._notify("proc-loss", proc)

    def slow_node(self, node: int, factor: float) -> None:
        """Run ``node`` at ``factor`` x nominal speed from now on."""
        if factor <= 0:
            raise FaultError(f"slowdown factor must be positive, got {factor}")
        if not self.node_alive(node):
            return
        if factor == 1.0:
            self.slow_factors.pop(node, None)
        else:
            self.slow_factors[node] = factor
        self._notify("slowdown", node)

    def recover_node(self, node: int) -> None:
        """A crashed node rejoins at nominal speed (idempotent).

        Individually-lost processors of *other* nodes stay dead; the
        recovering node returns whole.
        """
        if self.node_alive(node):
            return
        self.dead_nodes.discard(node)
        self.slow_factors.pop(node, None)
        for p in self.base.node_processors(node):
            self.dead_procs.discard(p.index)
        self._notify("recovery", node)

    def _notify(self, kind: str, target: int) -> None:
        for fn in list(self._on_change):
            fn(kind, target)

    # -- the degraded shape ----------------------------------------------------

    def shape(self) -> ClusterSpec:
        """The surviving cluster as a canonical (dense) ClusterSpec."""
        counts: list[int] = []
        speeds: list[float] = []
        for n in range(self.base.nodes):
            alive_here = [
                p for p in self.base.node_processors(n) if p.index not in self.dead_procs
            ]
            if not alive_here:
                continue
            counts.append(len(alive_here))
            speeds.append(self.base.node_speeds[n] * self.slow_factors.get(n, 1.0))
        if not counts:
            raise FaultError("no processors left alive; the cluster is gone")
        return ClusterSpec(procs_by_node=counts, node_speeds=speeds)

    def shape_to_physical(self) -> dict[int, int]:
        """Map the degraded shape's dense indices to physical indices.

        Built in the same node/slot order as :meth:`shape`, so executing a
        schedule computed for the shape on the physical survivors is a
        straight index translation.
        """
        mapping: dict[int, int] = {}
        k = 0
        for n in range(self.base.nodes):
            for p in self.base.node_processors(n):
                if p.index not in self.dead_procs:
                    mapping[k] = p.index
                    k += 1
        return mapping

    def __repr__(self) -> str:
        return (
            f"ClusterView(dead_nodes={sorted(self.dead_nodes)}, "
            f"dead_procs={sorted(self.dead_procs)}, "
            f"slow={dict(sorted(self.slow_factors.items()))})"
        )
