"""Tenants: independent app instances sharing one physical cluster.

The paper schedules one constrained dynamic application that owns the
whole cluster.  The fleet layer generalizes the ownership side without
touching the scheduling theory: each :class:`Tenant` is a complete §2
application — its own task graph, state space, and per-state optimal
schedules — that believes it runs on a private cluster.  That private
cluster is *virtual*: a single-SMP-node carve-out of ``width`` processors
granted by the fleet's bin-packing placer (Easwaran et al.'s virtual
cluster-based scheduling, see PAPERS.md).

Because the virtual cluster's width is itself a fleet-controlled regime
variable, a tenant pre-computes one :class:`~repro.core.table.ScheduleTable`
per width it may be granted (``1..max_width``), exactly the way
:class:`~repro.faults.failover.ShapeTable` pre-computes one solution per
degraded shape.  Fair-share preemption then never kills a tenant: it
demotes it to the schedule for a narrower width — a pre-verified,
cheaper-footprint regime — and promotes it back when capacity returns.

All builds go through the shared :class:`~repro.core.cache.ScheduleCache`,
so a second tenant of the same class (same graph, same state space) builds
its tables from cache hits instead of re-running branch and bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.optimal import OptimalScheduler
from repro.core.schedule import ScheduleSolution
from repro.core.table import ScheduleTable
from repro.core.transition import TransitionPolicy
from repro.errors import TenantError
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import State, StateSpace

__all__ = ["default_width_policy", "TenantSpec", "Tenant"]


def default_width_policy(state: State, max_width: int) -> int:
    """Processors a tenant wants in ``state``: its largest integer variable.

    The kiosk reading: ``State(n_customers=3)`` wants up to three
    processors — more people, more parallelism — clamped to the tenant's
    declared ``max_width`` and never below one.
    """
    ints = [v for v in state.values() if isinstance(v, int) and v > 0]
    want = max(ints) if ints else 1
    return max(1, min(max_width, want))


@dataclass(frozen=True)
class TenantSpec:
    """The static description of one tenant application.

    Attributes
    ----------
    name:
        Class name shown in reports (instances get unique ids).
    graph:
        The tenant's task graph (a full §2 application).
    space:
        Its state space; schedule tables cover it totally per width.
    initial:
        State at admission time.
    max_width:
        Largest virtual sub-cluster the tenant can use (processors).
    priority:
        Higher wins capacity under contention and orders the admission
        queue.
    weight:
        Fair-share weight among equal priorities.
    width_policy:
        ``fn(state, max_width) -> int`` mapping the current state to the
        *demanded* width (defaults to :func:`default_width_policy`).
    """

    name: str
    graph: TaskGraph
    space: StateSpace
    initial: State
    max_width: int = 2
    priority: int = 0
    weight: float = 1.0
    width_policy: Callable[[State, int], int] = default_width_policy

    def __post_init__(self) -> None:
        if self.max_width < 1:
            raise TenantError(f"max_width must be >= 1, got {self.max_width}")
        if self.weight <= 0:
            raise TenantError(f"weight must be positive, got {self.weight}")
        if self.initial not in self.space:
            raise TenantError(
                f"initial state {self.initial!r} outside the tenant's state space"
            )


@dataclass
class Tenant:
    """One admitted (or queued) tenant instance with its schedule bank.

    ``tables[w]`` is the tenant's :class:`ScheduleTable` over its full
    state space on a virtual ``1 x w`` cluster, built lazily by
    :meth:`ensure_width` (through the shared cache when one is wired).
    ``granted`` tracks the width the placer currently carves for it;
    ``granted < demand()`` means the tenant is running degraded.
    """

    id: str
    spec: TenantSpec
    state: State
    seq: int = 0  # admission order; tie-breaker everywhere
    tables: dict[int, ScheduleTable] = field(default_factory=dict)
    granted: int = 0
    active: Optional[ScheduleSolution] = None
    arrived_at: float = 0.0
    departed_at: Optional[float] = None
    # -- fleet accounting ---------------------------------------------------
    migrations: int = 0
    demotions: int = 0
    promotions: int = 0
    slips: int = 0  # iterations lost or replayed across fleet transitions
    total_stall: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def weight(self) -> float:
        return self.spec.weight

    def demand(self, state: Optional[State] = None) -> int:
        """Width the tenant wants for ``state`` (default: current state)."""
        return self.spec.width_policy(state or self.state, self.spec.max_width)

    def virtual_cluster(self, width: Optional[int] = None) -> ClusterSpec:
        """The single-node virtual sub-cluster of ``width`` processors."""
        w = self.granted if width is None else width
        if w < 1:
            raise TenantError(f"tenant {self.id} has no granted capacity")
        return ClusterSpec(nodes=1, procs_per_node=w)

    def ensure_width(
        self,
        width: int,
        cache=None,
        solve_policy=None,
    ) -> ScheduleTable:
        """The schedule table for a ``width``-wide virtual cluster.

        Built on first use via the cached table path;
        subsequent calls (and other tenants of the same class sharing the
        cache) reuse the stored solutions.  ``solve_policy`` picks the
        :mod:`repro.approx` ladder rung per solve (``None`` = exact) —
        named ``solve_policy`` because ``policy`` already means the fleet
        transition policy throughout this layer.
        """
        if not 1 <= width <= self.spec.max_width:
            raise TenantError(
                f"width {width} outside 1..{self.spec.max_width} for tenant {self.id}"
            )
        table = self.tables.get(width)
        if table is None:
            scheduler = OptimalScheduler(self.virtual_cluster(width))
            table = ScheduleTable.build(
                self.spec.graph,
                self.spec.space,
                scheduler,
                cache=cache,
                policy=solve_policy,
            )
            self.tables[width] = table
        return table

    def solution(
        self,
        state: Optional[State] = None,
        width: Optional[int] = None,
        cache=None,
        solve_policy=None,
    ) -> ScheduleSolution:
        """The pre-computed solution for ``(state, width)`` (lazy build)."""
        state = state or self.state
        w = self.granted if width is None else width
        table = self.ensure_width(w, cache=cache, solve_policy=solve_policy)
        return table.lookup(state)

    def switch(self, new: ScheduleSolution, policy: TransitionPolicy) -> float:
        """Make ``new`` the active solution; returns the transition's stall.

        The fleet's one copy of per-tenant switch accounting: a tenant that
        was already running pays ``policy``'s effect (stall, slipped
        iterations); a freshly placed one just starts.
        """
        stall = 0.0
        if self.active is not None:
            effect = policy.effect(self.active, new)
            stall = effect.stall
            self.total_stall += stall
            self.slips += effect.lost_iterations + effect.replayed_iterations
        self.active = new
        return stall

    def __repr__(self) -> str:
        mode = "degraded" if 0 < self.granted < self.demand() else "nominal"
        return (
            f"Tenant({self.id}, state={self.state!r}, "
            f"granted={self.granted}/{self.demand()} [{mode}], "
            f"prio={self.priority})"
        )
