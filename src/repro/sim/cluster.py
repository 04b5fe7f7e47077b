"""Cluster shape: nodes, processors, relative speeds.

The paper's platform is ``4 nodes x 4 processors`` (AlphaServer 4100s with
four 400 MHz Alphas each).  :class:`ClusterSpec` captures exactly the inputs
the Figure 6 algorithm needs — "the number of nodes and the number of
processors within each node" — plus an optional per-node speed factor used
by heterogeneity ablations.

Processors are identified by a dense global index ``0..P-1``;
:class:`Processor` carries the (node, slot) decomposition so schedulers can
reason about locality.

The fault-tolerance subsystem (:mod:`repro.faults`) treats partial cluster
failure as a state change to a new cluster *shape*: :meth:`without_node`
and :meth:`without_processor` derive the degraded shapes, which may be
non-uniform (a node that lost one processor keeps the others), so a spec
may carry an explicit per-node processor count via ``procs_by_node``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ClusterError

__all__ = ["Processor", "ClusterSpec", "STAMPEDE_CLUSTER", "SINGLE_NODE_SMP"]


@dataclass(frozen=True, order=True)
class Processor:
    """One processor in the cluster.

    Attributes
    ----------
    index:
        Dense global index in ``0..P-1``; the canonical identity.
    node:
        Index of the SMP node this processor lives in.
    slot:
        Index of the processor within its node.
    speed:
        Relative speed factor (1.0 = nominal).  A task whose nominal cost is
        ``c`` runs in ``c / speed`` on this processor.
    """

    index: int
    node: int
    slot: int
    speed: float = 1.0

    def __str__(self) -> str:
        return f"P{self.index}(n{self.node}.{self.slot})"


class ClusterSpec:
    """Description of an SMP cluster.

    Parameters
    ----------
    nodes:
        Number of SMP nodes.
    procs_per_node:
        Processors in each node (uniform).  Mutually exclusive with
        ``procs_by_node``.
    node_speeds:
        Optional per-node relative speed factors (defaults to all 1.0).
    procs_by_node:
        Explicit per-node processor counts for non-uniform (e.g. degraded)
        clusters.  ``procs_per_node`` then reports the *largest* node — the
        quantity schedulers use to cap data-parallel width, which remains
        correct because placements are validated against each node's actual
        processors.

    >>> c = ClusterSpec(nodes=2, procs_per_node=2)
    >>> [str(p) for p in c.processors]
    ['P0(n0.0)', 'P1(n0.1)', 'P2(n1.0)', 'P3(n1.1)']
    >>> c.same_node(0, 1), c.same_node(1, 2)
    (True, False)
    """

    def __init__(
        self,
        nodes: int | None = None,
        procs_per_node: int | None = None,
        node_speeds: Sequence[float] | None = None,
        procs_by_node: Sequence[int] | None = None,
    ) -> None:
        if procs_by_node is not None:
            if procs_per_node is not None:
                raise ClusterError("pass procs_per_node or procs_by_node, not both")
            procs_by_node = tuple(int(p) for p in procs_by_node)
            if nodes is None:
                nodes = len(procs_by_node)
            if len(procs_by_node) != nodes:
                raise ClusterError(
                    f"procs_by_node has {len(procs_by_node)} entries for {nodes} nodes"
                )
        else:
            if nodes is None or procs_per_node is None:
                raise ClusterError("need nodes and procs_per_node (or procs_by_node)")
            procs_by_node = tuple(procs_per_node for _ in range(nodes))
        if nodes < 1:
            raise ClusterError(f"cluster needs >= 1 node, got {nodes}")
        if any(p < 1 for p in procs_by_node):
            raise ClusterError(f"cluster needs >= 1 proc per node, got {min(procs_by_node)}")
        if node_speeds is None:
            node_speeds = [1.0] * nodes
        if len(node_speeds) != nodes:
            raise ClusterError(
                f"node_speeds has {len(node_speeds)} entries for {nodes} nodes"
            )
        if any(s <= 0 for s in node_speeds):
            raise ClusterError("node speeds must be positive")
        self.nodes = nodes
        self.procs_by_node: tuple[int, ...] = procs_by_node
        self.procs_per_node = max(procs_by_node)
        self.uniform = len(set(procs_by_node)) == 1
        self.node_speeds = tuple(float(s) for s in node_speeds)
        processors: list[Processor] = []
        self._node_offsets: list[int] = []
        index = 0
        for n in range(nodes):
            self._node_offsets.append(index)
            for s in range(procs_by_node[n]):
                processors.append(
                    Processor(index=index, node=n, slot=s, speed=self.node_speeds[n])
                )
                index += 1
        self.processors: tuple[Processor, ...] = tuple(processors)

    # -- basic queries ------------------------------------------------------

    @property
    def total_processors(self) -> int:
        """Total processor count across all nodes."""
        return len(self.processors)

    def __len__(self) -> int:
        return self.total_processors

    def __iter__(self) -> Iterator[Processor]:
        return iter(self.processors)

    def processor(self, index: int) -> Processor:
        """The :class:`Processor` with global index ``index``."""
        if not 0 <= index < self.total_processors:
            raise ClusterError(
                f"processor index {index} out of range 0..{self.total_processors - 1}"
            )
        return self.processors[index]

    def node_of(self, index: int) -> int:
        """Node index of processor ``index``."""
        return self.processor(index).node

    def same_node(self, a: int, b: int) -> bool:
        """True if processors ``a`` and ``b`` share an SMP node."""
        return self.node_of(a) == self.node_of(b)

    def node_processors(self, node: int) -> tuple[Processor, ...]:
        """All processors belonging to ``node``."""
        if not 0 <= node < self.nodes:
            raise ClusterError(f"node index {node} out of range 0..{self.nodes - 1}")
        lo = self._node_offsets[node]
        return self.processors[lo : lo + self.procs_by_node[node]]

    # -- degraded shapes (repro.faults) -------------------------------------

    def without_node(self, node: int) -> "ClusterSpec":
        """The cluster shape after losing ``node`` entirely.

        Surviving processors are re-densified to ``0..P'-1``; the mapping
        back to physical processors is the fault view's job
        (:meth:`repro.faults.view.ClusterView.shape_to_physical`).
        """
        if not 0 <= node < self.nodes:
            raise ClusterError(f"node index {node} out of range 0..{self.nodes - 1}")
        if self.nodes == 1:
            raise ClusterError("cannot remove the last node of a cluster")
        keep = [n for n in range(self.nodes) if n != node]
        return ClusterSpec(
            procs_by_node=[self.procs_by_node[n] for n in keep],
            node_speeds=[self.node_speeds[n] for n in keep],
        )

    def without_processor(self, index: int) -> "ClusterSpec":
        """The cluster shape after losing one processor.

        The owning node keeps its other processors; a node reduced to zero
        processors disappears from the shape.
        """
        node = self.node_of(index)
        counts = list(self.procs_by_node)
        counts[node] -= 1
        if counts[node] == 0:
            return self.without_node(node)
        return ClusterSpec(procs_by_node=counts, node_speeds=self.node_speeds)

    def shape_key(self) -> tuple:
        """Canonical identity of the *shape* irrespective of node order.

        Two degraded clusters that lost different-but-identical nodes are
        the same scheduling problem; keying schedule tables by this makes
        the table cover "which shapes", not "which physical node died".
        """
        return tuple(sorted(zip(self.procs_by_node, self.node_speeds), reverse=True))

    def __repr__(self) -> str:
        if self.uniform:
            return f"ClusterSpec(nodes={self.nodes}, procs_per_node={self.procs_per_node})"
        return f"ClusterSpec(procs_by_node={list(self.procs_by_node)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClusterSpec)
            and self.procs_by_node == other.procs_by_node
            and self.node_speeds == other.node_speeds
        )

    def __hash__(self) -> int:
        return hash((self.procs_by_node, self.node_speeds))


def STAMPEDE_CLUSTER() -> ClusterSpec:
    """The paper's platform: 4 AlphaServer 4100 nodes x 4 processors."""
    return ClusterSpec(nodes=4, procs_per_node=4)


def SINGLE_NODE_SMP(procs: int = 4) -> ClusterSpec:
    """A single SMP node — the configuration of most paper experiments."""
    return ClusterSpec(nodes=1, procs_per_node=procs)
