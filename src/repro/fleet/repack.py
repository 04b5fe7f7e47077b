"""Re-packing: tenant churn as a §3.4 regime change, fleet-wide.

A :class:`RepackController` is *not* a
:class:`~repro.core.table.RegimeController`: packing is not a table
look-up.  Where a regime controller answers one event with one look-up, a
repack answers one fleet event — tenant arrival, departure, per-tenant
regime change, node loss — with a whole new packing.  What it shares with
the regime controllers is the step after the look-up: every tenant whose
schedule changes goes through :meth:`~repro.fleet.tenant.Tenant.switch`,
the fleet's one copy of per-tenant transition accounting.  A repack

1. re-runs the fair-share placer over the surviving capacity,
2. pre-builds any missing ``(state, width)`` schedules through the shared
   :class:`~repro.core.cache.ScheduleCache` (the look-up step),
3. migrates every tenant whose carve or schedule changed through a
   :class:`~repro.core.transition.TransitionPolicy`, accounting stall and
   slipped iterations per tenant (the transition step).

Fair-share preemption shows up here as a *demotion*: an over-quota tenant
is handed the schedule pre-computed for a narrower virtual cluster rather
than being killed; a later repack with more headroom promotes it back.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.transition import DrainTransition, TransitionPolicy
from repro.fleet.placer import Demand, FairSharePlacer, Packing
from repro.fleet.tenant import Tenant

__all__ = ["RepackRecord", "RepackController"]


@dataclass(frozen=True)
class RepackRecord:
    """One executed fleet re-pack with its accounted cost."""

    time: float
    cause: str  # "arrival" | "departure" | "regime" | "node-crash" | ...
    tenants: int  # live tenants after the repack
    moved: int  # tenants whose physical processors changed
    demoted: int  # tenants newly running below their demanded width
    promoted: int  # tenants restored toward their demanded width
    evicted: tuple[str, ...]  # tenants that lost their floor (capacity loss)
    stall: float  # summed transition stall across migrated tenants
    latency_s: float  # wall-clock cost of computing this repack
    cache_hits: int = 0  # schedule-cache hits while pre-building
    cache_misses: int = 0


class RepackController:
    """Churn-driven re-packing over a shared cluster view.

    The controller owns the packing: ``packing`` maps every live tenant to
    its current :class:`~repro.fleet.placer.Carve`, and each tenant's
    ``active`` solution always matches its granted width and current
    state.  ``repack`` is idempotent for an unchanged fleet.
    """

    def __init__(
        self,
        view,
        tenants: Mapping[str, Tenant],
        placer: Optional[FairSharePlacer] = None,
        policy: Optional[TransitionPolicy] = None,
        cache=None,
        solve_policy=None,
    ) -> None:
        self.view = view
        self.tenants = tenants  # live reference owned by the FleetManager
        self.placer = placer or FairSharePlacer()
        self.policy = policy or DrainTransition()
        self.cache = cache
        # repro.approx ladder rung for every table build ("policy" is taken
        # by the transition policy in this layer, hence the longer name).
        self.solve_policy = solve_policy
        self.packing = Packing()
        self.records: list[RepackRecord] = []
        self.total_stall = 0.0

    # -- capacity -----------------------------------------------------------

    def free_procs(self) -> dict[int, list[int]]:
        """Per-node alive physical processors the placer may hand out."""
        out: dict[int, list[int]] = {}
        for p in self.view.alive_processors():
            out.setdefault(p.node, []).append(p.index)
        return out

    def capacity(self) -> int:
        return sum(len(v) for v in self.free_procs().values())

    # -- the repack ----------------------------------------------------------

    def demands(self) -> list[Demand]:
        return [
            Demand(
                tenant_id=t.id,
                want=t.demand(),
                priority=t.priority,
                weight=t.weight,
                seq=t.seq,
            )
            for t in self.tenants.values()
        ]

    def plan(self, extra: Optional[Sequence[Demand]] = None) -> Packing:
        """A trial packing (no migration, no state change) — admission asks
        "would this tenant fit?" without committing anything."""
        demands = self.demands() + list(extra or ())
        return self.placer.pack(self.free_procs(), demands, pinned=self.packing.carves)

    def repack(self, time: float, cause: str) -> RepackRecord:
        """Compute and commit a new packing; migrate changed tenants."""
        t0 = _time.perf_counter()
        hits0 = misses0 = 0
        if self.cache is not None:
            hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses
        old_carves = dict(self.packing.carves)
        packing = self.placer.pack(
            self.free_procs(), self.demands(), pinned=old_carves
        )

        moved = demoted = promoted = 0
        stall = 0.0
        for tid, carve in packing.carves.items():
            tenant = self.tenants[tid]
            new_sol = tenant.solution(
                width=carve.width,
                cache=self.cache,
                solve_policy=self.solve_policy,
            )
            old_carve = old_carves.get(tid)
            carve_changed = old_carve is None or old_carve.procs != carve.procs
            if carve_changed or tenant.active is not new_sol:
                if tenant.active is not None:
                    tenant.migrations += 1
                    moved += 1
                stall += tenant.switch(new_sol, self.policy)
            was_degraded = old_carve is not None and old_carve.degraded
            shrank = old_carve is not None and carve.width < old_carve.width
            grew = old_carve is not None and carve.width > old_carve.width
            if carve.degraded and (old_carve is None or shrank or not was_degraded):
                tenant.demotions += 1
                demoted += 1
            elif was_degraded and (grew or not carve.degraded):
                tenant.promotions += 1
                promoted += 1
            tenant.granted = carve.width

        # Tenants that lost even the one-processor floor (only possible
        # when capacity shrank under the fleet, e.g. node crashes).
        evicted = tuple(sorted(packing.unplaced))
        for tid in evicted:
            tenant = self.tenants[tid]
            tenant.granted = 0
            tenant.active = None

        self.packing = packing
        hits = misses = 0
        if self.cache is not None:
            hits = self.cache.stats.hits - hits0
            misses = self.cache.stats.misses - misses0
        record = RepackRecord(
            time=time,
            cause=cause,
            tenants=len(packing.carves),
            moved=moved,
            demoted=demoted,
            promoted=promoted,
            evicted=evicted,
            stall=stall,
            latency_s=_time.perf_counter() - t0,
            cache_hits=hits,
            cache_misses=misses,
        )
        self.records.append(record)
        self.total_stall += stall
        return record

    @property
    def repack_count(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"RepackController(repacks={len(self.records)}, "
            f"stall={self.total_stall:g}s, policy={self.policy!r})"
        )
