"""Contended communication fabric (optional, beyond the paper's model).

Figure 6's communication input is a pure cost table: a transfer takes a
fixed time regardless of what else is in flight.  Real Memory Channel and
Myrinet links serialize concurrent transfers.  :class:`LinkFabric` models
that: each intra-node memory bus and each inter-node link pair is a
capacity-1 resource, so simultaneous transfers queue.

This is deliberately *opt-in* (the executors take ``fabric=None`` by
default): the paper's schedules assume contention-free transfers, and the
fabric exists to test that assumption — the fabric ablation measures how
much a schedule computed from the pure cost table slips when transfers
actually contend.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ClusterError
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator
from repro.sim.network import CommModel
from repro.sim.resources import Resource

__all__ = ["LinkFabric"]


class LinkFabric:
    """Serializing links over a :class:`CommModel`'s cost tiers.

    Resources:

    * one per node ("memory bus") for intra-node transfers,
    * one per unordered node pair ("network link") for inter-node
      transfers (``link_capacity`` concurrent messages each),
    * same-processor transfers are free and uncontended.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: ClusterSpec,
        comm: CommModel,
        link_capacity: int = 1,
        bus_capacity: int = 1,
    ) -> None:
        if link_capacity < 1 or bus_capacity < 1:
            raise ClusterError("fabric capacities must be >= 1")
        self.sim = sim
        self.cluster = cluster
        self.comm = comm
        self._buses = {
            n: Resource(sim, capacity=bus_capacity, name=f"bus{n}")
            for n in range(cluster.nodes)
        }
        self._links = {
            (a, b): Resource(sim, capacity=link_capacity, name=f"link{a}-{b}")
            for a in range(cluster.nodes)
            for b in range(a + 1, cluster.nodes)
        }
        self.transfers = 0
        self.contended_time = 0.0  # total seconds spent waiting for links

    def _resource_for(self, src_proc: int, dst_proc: int) -> Optional[Resource]:
        if src_proc == dst_proc:
            return None
        a, b = self.cluster.node_of(src_proc), self.cluster.node_of(dst_proc)
        if a == b:
            return self._buses[a]
        return self._links[(min(a, b), max(a, b))]

    def transfer(
        self, nbytes: int, src_proc: int, dst_proc: int, then: Callable[[], Any]
    ) -> None:
        """Move ``nbytes`` from ``src_proc`` to ``dst_proc``, then call ``then()``.

        The covering link is held for the transfer's duration, so concurrent
        transfers over one link serialize; the wait for it is accumulated in
        :attr:`contended_time`.  The transfer starts one heap entry from now
        and ``then`` runs one heap entry after the link is released; a
        contended replay's same-instant order depends on both
        (``tests/runtime/test_static_diff.py`` pins it).
        """
        sim = self.sim
        duration = self.comm.transfer_time(nbytes, src_proc, dst_proc)
        resource = self._resource_for(src_proc, dst_proc)
        self.transfers += 1
        t0 = sim.now

        def begin() -> None:
            if duration <= 0:
                sim.call_at(sim.now, then)
            elif resource is None:
                sim.call_at(sim.now + duration, end, None)
            else:
                resource.request().add_callback(granted)

        def granted(grant: SimEvent) -> None:
            self.contended_time += sim.now - t0
            sim.call_at(sim.now + duration, end, grant)

        def end(grant: Optional[SimEvent]) -> None:
            if grant is not None:
                resource.release(grant)
            sim.call_at(sim.now, then)

        sim.call_at(sim.now, begin)

    def __repr__(self) -> str:
        return (
            f"LinkFabric(nodes={self.cluster.nodes}, transfers={self.transfers}, "
            f"contended={self.contended_time:g}s)"
        )
