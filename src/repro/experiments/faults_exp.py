"""Fault-tolerance experiment: failure rate x transition policy (extension).

Section 3.4's amortization argument says regime transitions are worth
their stall because "state changes are infrequent relative to the length
of the schedules".  Failures are regime changes too — but their frequency
is an environmental given, not an application property, so the argument
has a breaking point: as the failure rate climbs, a growing fraction of
the run is spent stalled in transitions (and losing in-flight frames)
rather than streaming.

This experiment sweeps Poisson failure rate against the three transition
policies and reports where the amortization argument holds (stall is a
rounding error, availability stays near 1) and where it breaks (the
cluster spends its life failing over).  The per-policy trade is the same
one the §3.4 machinery exposes for application regime changes:

* drain      — never abandons work, pays the longest stall;
* immediate  — shortest stall, pays in abandoned in-flight frames;
* checkpoint — replays in-flight frames from STM: no transition loss,
               stall between the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.transition import (
    CheckpointTransition,
    DrainTransition,
    ImmediateTransition,
    TransitionPolicy,
)
from repro.experiments.report import format_table
from repro.faults.events import FaultPlan
from repro.faults.failover import ShapeTable
from repro.faults.runner import FaultRuntime, FaultTolerantExecutor
from repro.graph.builders import chain_graph
from repro.graph.taskgraph import TaskGraph
from repro.metrics.recovery import RecoveryStats
from repro.sim.cluster import ClusterSpec
from repro.state import State

__all__ = ["FaultRow", "FaultsResult", "run_faults", "DEFAULT_RATES"]

DEFAULT_RATES = (0.0, 0.01, 0.08)

# Amortization "holds" while transitions cost less than this fraction of
# the run; past it the cluster is failing over more than it is streaming.
STALL_BUDGET = 0.15


@dataclass(frozen=True)
class FaultRow:
    """One (failure rate, transition policy) cell of the sweep."""

    rate: float
    policy: str
    emitted: int
    completed: int
    horizon: float
    recovery: RecoveryStats

    @property
    def stall_fraction(self) -> float:
        """Fraction of the run spent stalled in failover transitions."""
        if self.horizon <= 0:
            return 0.0
        return min(1.0, self.recovery.total_stall / self.horizon)

    @property
    def amortization_holds(self) -> bool:
        return self.stall_fraction <= STALL_BUDGET


@dataclass
class FaultsResult:
    """The full sweep, with the §3.4 verdict per cell."""

    rows: list[FaultRow]
    iterations: int
    horizon: float

    def rows_for(self, policy: str) -> list[FaultRow]:
        return [r for r in self.rows if r.policy == policy]

    def breaking_rate(self, policy: str) -> Optional[float]:
        """Lowest swept rate at which amortization breaks (None = never)."""
        for r in sorted(self.rows_for(policy), key=lambda r: r.rate):
            if not r.amortization_holds:
                return r.rate
        return None

    def render(self) -> str:
        rows = []
        for r in sorted(self.rows, key=lambda r: (r.rate, r.policy)):
            rec = r.recovery
            rows.append([
                f"{r.rate:.3f}",
                r.policy,
                f"{rec.crashes}",
                f"{rec.failovers}",
                f"{r.completed}/{r.emitted}",
                f"{rec.frames_lost_crash}",
                f"{rec.frames_lost_transition}",
                f"{rec.frames_replayed}",
                f"{rec.detection_latency_mean:.2f}" if rec.crashes else "-",
                f"{rec.availability:.3f}",
                "holds" if r.amortization_holds else "BREAKS",
            ])
        table = format_table(
            ["rate (1/s)", "policy", "crashes", "failovers", "done",
             "lost:crash", "lost:trans", "replayed", "detect (s)",
             "avail", "amortization"],
            rows,
            title=f"Failure rate x transition policy "
                  f"({self.iterations} frames, ~{self.horizon:.0f}s)",
        )
        verdicts = []
        for policy in sorted({r.policy for r in self.rows}):
            at = self.breaking_rate(policy)
            verdicts.append(
                f"  {policy}: amortization "
                + ("holds at every swept rate" if at is None else f"breaks at {at:g}/s")
            )
        return table + "\n\n§3.4 amortization verdict:\n" + "\n".join(verdicts)


def default_policies() -> dict[str, TransitionPolicy]:
    return {
        "drain": DrainTransition(setup=0.5),
        "immediate": ImmediateTransition(setup=0.5),
        "checkpoint": CheckpointTransition(setup=0.5),
    }


def run_faults(
    rates: Sequence[float] = DEFAULT_RATES,
    policies: Optional[dict[str, TransitionPolicy]] = None,
    iterations: int = 40,
    cluster: Optional[ClusterSpec] = None,
    graph: Optional[TaskGraph] = None,
    state: Optional[State] = None,
    seed: int = 7,
    mean_downtime: float = 8.0,
) -> FaultsResult:
    """Sweep failure rate x transition policy over one fault subsystem run each.

    Every cell replays a seeded Poisson fault plan (same seed for every
    policy at a given rate, so policies face identical failures) through
    the full inject -> detect -> failover loop.  The shape table is built
    once and shared: pre-computing the degraded-shape schedules is exactly
    the §3.4 move of treating cluster states as enumerable regimes.
    """
    cluster = cluster or ClusterSpec(nodes=2, procs_per_node=1)
    graph = graph or chain_graph([1.0, 1.0])
    state = state or State(n_models=1)
    policies = policies or default_policies()
    table = ShapeTable.build(graph, state, cluster)
    base_period = table.lookup(cluster).period
    # Rough wall-clock for the plan horizon: healthy cadence plus slack
    # for degraded stretches and transition stalls.
    horizon = iterations * base_period * 2.5

    rows: list[FaultRow] = []
    for rate in rates:
        plan = FaultPlan.poisson(
            cluster, horizon=horizon, rate=rate, seed=seed,
            mean_downtime=mean_downtime,
        )
        for name, policy in policies.items():
            rt = FaultRuntime(plan=plan, policy=policy, table=table)
            res = FaultTolerantExecutor(graph, state, cluster, rt).run(iterations)
            rows.append(
                FaultRow(
                    rate=rate,
                    policy=name,
                    emitted=res.emitted,
                    completed=res.completed_count,
                    horizon=res.horizon,
                    recovery=res.meta["recovery"],
                )
            )
    return FaultsResult(rows=rows, iterations=iterations, horizon=horizon)
