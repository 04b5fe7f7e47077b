"""Communication cost model for the simulated cluster.

Figure 6 lists among the scheduler's inputs "execution times for
communication of each data type both within and across nodes in the
cluster".  :class:`CommModel` is exactly that table: a latency+bandwidth
(alpha-beta) model with three tiers —

* same processor: free (data stays in cache/registers of one thread),
* same node: shared-memory copy (Memory-Channel-class latency),
* cross node: network transfer (Myrinet-class latency).

Costs are deterministic functions of message size, so schedules evaluated
off-line match the simulator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ClusterError
from repro.sim.cluster import ClusterSpec

__all__ = ["CommCost", "CommModel", "tier_name"]


@dataclass(frozen=True)
class CommCost:
    """Latency + bandwidth pair for one tier of the memory hierarchy.

    ``time(nbytes) = latency + nbytes / bandwidth`` (seconds).
    A bandwidth of ``float('inf')`` makes size irrelevant.
    """

    latency: float
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ClusterError(f"negative latency: {self.latency}")
        if self.bandwidth <= 0:
            raise ClusterError(f"bandwidth must be positive: {self.bandwidth}")

    def time(self, nbytes: int) -> float:
        """Transfer time in seconds for a message of ``nbytes``."""
        if nbytes < 0:
            raise ClusterError(f"negative message size: {nbytes}")
        if self.bandwidth == float("inf"):
            return self.latency
        return self.latency + nbytes / self.bandwidth


# The free tier: frozen, so every model shares it.
_FREE = CommCost(latency=0.0, bandwidth=float("inf"))


class CommModel:
    """Three-tier communication cost model over a :class:`ClusterSpec`.

    Parameters
    ----------
    cluster:
        The cluster whose topology decides which tier applies.
    intra_node:
        Cost for transfers between processors of one SMP (shared memory).
    inter_node:
        Cost for transfers between processors on different nodes.
    same_proc:
        Cost when producer and consumer share a processor (default: free).

    The defaults are loosely calibrated to the paper's platform: Memory
    Channel style shared-memory puts (~10 us latency, ~100 MB/s effective)
    and Myrinet-class messaging (~30 us latency, ~40 MB/s effective for
    STM-sized objects).  Experiments that sweep communication cost replace
    these wholesale.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        intra_node: CommCost | None = None,
        inter_node: CommCost | None = None,
        same_proc: CommCost | None = None,
    ) -> None:
        self.cluster = cluster
        self.intra_node = intra_node or CommCost(latency=10e-6, bandwidth=100e6)
        self.inter_node = inter_node or CommCost(latency=30e-6, bandwidth=40e6)
        self.same_proc = same_proc or _FREE

    @classmethod
    def free(cls, cluster: ClusterSpec) -> "CommModel":
        """A model where all communication is free (idealized SMP)."""
        return cls(cluster, intra_node=_FREE, inter_node=_FREE, same_proc=_FREE)

    @classmethod
    def uniform(cls, cluster: ClusterSpec, latency: float, bandwidth: float) -> "CommModel":
        """A model with one cost for every non-local transfer."""
        cost = CommCost(latency=latency, bandwidth=bandwidth)
        return cls(cluster, intra_node=cost, inter_node=cost)

    def tier(self, src_proc: int, dst_proc: int) -> CommCost:
        """The :class:`CommCost` tier applying between two processors."""
        if src_proc == dst_proc:
            return self.same_proc
        if self.cluster.same_node(src_proc, dst_proc):
            return self.intra_node
        return self.inter_node

    def transfer_time(self, nbytes: int, src_proc: int, dst_proc: int) -> float:
        """Seconds to move ``nbytes`` from ``src_proc`` to ``dst_proc``."""
        return self.tier(src_proc, dst_proc).time(nbytes)

    def worst_case(self, nbytes: int) -> float:
        """The slowest possible transfer time for ``nbytes`` in this model."""
        candidates = [self.same_proc.time(nbytes), self.intra_node.time(nbytes)]
        if self.cluster.nodes > 1:
            candidates.append(self.inter_node.time(nbytes))
        return max(candidates)

    def __repr__(self) -> str:
        return (
            f"CommModel(intra={self.intra_node.latency:g}s+{self.intra_node.bandwidth:g}B/s, "
            f"inter={self.inter_node.latency:g}s+{self.inter_node.bandwidth:g}B/s)"
        )


def tier_name(cluster: ClusterSpec, src_proc: int, dst_proc: int) -> str:
    """The communication tier label between two processors."""
    if src_proc == dst_proc:
        return "same_proc"
    if cluster.same_node(src_proc, dst_proc):
        return "intra_node"
    return "inter_node"
