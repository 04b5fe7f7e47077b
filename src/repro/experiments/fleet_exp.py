"""Fleet experiment: a shared cluster serving waves of kiosk tenants.

ROADMAP item 1's "millions of users" story, scaled to an experiment:
independent kiosk instances — each a seeded
:class:`~repro.apps.kiosk.KioskEnvironment` driving its own state machine
— arrive in Poisson waves, are admitted (or queued) by the
:class:`~repro.fleet.manager.FleetManager`, get a fair-share virtual
sub-cluster carved out of the shared cluster, and churn through regime
changes and departures.  Every fleet event triggers a re-pack whose
schedules come from the shared :class:`~repro.core.cache.ScheduleCache`,
so the *second* arrival wave builds its tenants' tables almost entirely
from cache hits — the same amortization §3.4 claims for regime changes,
applied across tenants instead of across time.

Reported: admission rate, peak concurrency, packing utilization,
preemptions (demotions to degraded-width schedules), per-class slip
counts, re-pack latency, cache hit rates per wave, and the F001/S-rule
verification verdict over the final packing.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.apps.kiosk import KioskEnvironment
from repro.core.cache import ScheduleCache
from repro.core.transition import CheckpointTransition, TransitionPolicy
from repro.errors import ExperimentError
from repro.experiments.report import format_table
from repro.fleet import FleetManager, TenantSpec
from repro.graph.builders import chain_graph, fork_join_graph
from repro.graph.cost import LinearCost
from repro.sim.cluster import ClusterSpec
from repro.state import State, StateSpace

__all__ = ["FleetResult", "WaveStats", "kiosk_tenant_classes", "run_fleet"]

#: Kiosk occupancy range shared by every tenant class (1..3 customers).
FLEET_STATES = StateSpace.range("n_models", 1, 3)


def kiosk_tenant_classes() -> list[TenantSpec]:
    """Three seeded kiosk app classes with distinct shapes and SLAs.

    Costs are linear in the occupancy (``n_models``) like the tracker's
    T4/T5, so every regime change re-prices the tenant's schedule; widths
    and priorities differ so fair-share contention has real structure.
    """
    lite = chain_graph(
        [0.02, LinearCost(base=0.08, slope=0.12, variable="n_models"), 0.03],
        name="kiosk-lite",
    )
    std = chain_graph(
        [0.02,
         LinearCost(base=0.10, slope=0.20, variable="n_models"),
         LinearCost(base=0.05, slope=0.08, variable="n_models"),
         0.03],
        name="kiosk-std",
    )
    plus = fork_join_graph(
        0.02,
        [LinearCost(base=0.12, slope=0.22, variable="n_models"),
         LinearCost(base=0.10, slope=0.18, variable="n_models")],
        0.04,
        name="kiosk-plus",
    )
    initial = State(n_models=1)
    return [
        TenantSpec(name="kiosk-lite", graph=lite, space=FLEET_STATES,
                   initial=initial, max_width=2, priority=0, weight=1.0),
        TenantSpec(name="kiosk-std", graph=std, space=FLEET_STATES,
                   initial=initial, max_width=3, priority=1, weight=2.0),
        TenantSpec(name="kiosk-plus", graph=plus, space=FLEET_STATES,
                   initial=initial, max_width=3, priority=2, weight=3.0),
    ]


@dataclass
class WaveStats:
    """Per-arrival-wave accounting (the cache-amortization evidence)."""

    wave: int
    arrivals: int
    admitted: int
    queued: int
    rejected: int
    cache_hits: int
    cache_misses: int

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class FleetResult:
    """Everything ``python -m repro.experiments fleet`` reports."""

    capacity: int
    cluster: str
    offered: int
    admitted: int
    rejected: int
    peak_concurrent: int
    final_concurrent: int
    final_queued: int
    departures: int
    repacks: int
    repack_latency_mean_s: float
    repack_latency_max_s: float
    total_stall: float
    migrations: int
    demotions: int
    promotions: int
    mean_utilization: float
    peak_utilization: float
    waves: list[WaveStats] = field(default_factory=list)
    class_rows: list[dict] = field(default_factory=list)
    findings_errors: int = 0
    findings_warnings: int = 0
    cache_summary: str = ""
    solve_policy: str = "exact"

    @property
    def admission_rate(self) -> float:
        return self.admitted / self.offered if self.offered else 0.0

    def render(self) -> str:
        head = format_table(
            ["capacity", "offered", "admitted", "rate", "peak", "final",
             "queued", "rejected", "repacks", "repack mean",
             "util mean", "util peak"],
            [[
                f"{self.capacity} ({self.cluster})",
                self.offered,
                self.admitted,
                f"{self.admission_rate:.2f}",
                self.peak_concurrent,
                self.final_concurrent,
                self.final_queued,
                self.rejected,
                self.repacks,
                f"{self.repack_latency_mean_s * 1e3:.2f}ms",
                f"{self.mean_utilization:.2f}",
                f"{self.peak_utilization:.2f}",
            ]],
            title="Fleet: multi-tenant kiosks on one shared cluster",
        )
        wave_rows = [
            [w.wave, w.arrivals, w.admitted, w.queued, w.rejected,
             w.cache_hits, w.cache_misses, f"{w.hit_rate:.2f}"]
            for w in self.waves
        ]
        waves = format_table(
            ["wave", "arrivals", "admitted", "queued", "rejected",
             "cache hits", "cache misses", "hit rate"],
            wave_rows,
            title="Arrival waves (schedule-cache amortization across tenants)",
        )
        cls = format_table(
            ["class", "tenants", "prio", "slips", "demotions", "stall (s)"],
            [[r["name"], r["tenants"], r["priority"], r["slips"],
              r["demotions"], f"{r['stall']:.2f}"] for r in self.class_rows],
            title="Per-class preemption and slip accounting",
        )
        verdict = (
            f"solve policy: {self.solve_policy} | "
            f"verification: {self.findings_errors} error(s), "
            f"{self.findings_warnings} warning(s) from F001 + per-tenant "
            f"S-rule certificates (incl. S013 gap claims)"
        )
        fleet_line = (
            f"preemption: {self.migrations} migrations, {self.demotions} "
            f"demotions to degraded-width schedules, {self.promotions} "
            f"promotions back, {self.total_stall:.1f}s summed transition stall"
        )
        return "\n\n".join([head, waves, cls, fleet_line, verdict,
                            self.cache_summary])


def _tenant_events(
    seq: int,
    arrival: float,
    dwell: float,
    seed: int,
) -> list[tuple[float, str, int, Optional[State]]]:
    """Arrival, per-tenant kiosk regime changes, and departure events."""
    events: list[tuple[float, str, int, Optional[State]]] = [
        (arrival, "arrive", seq, None)
    ]
    env = KioskEnvironment(
        arrival_rate=1 / 20.0,
        mean_dwell=45.0,
        min_people=1,
        max_people=3,
        seed=seed * 7919 + seq,
    )
    for interval in env.trace(horizon=dwell)[1:]:
        events.append((arrival + interval.start, "regime", seq, interval.state()))
    events.append((arrival + dwell, "depart", seq, None))
    return events


def run_fleet(
    cluster: Optional[ClusterSpec] = None,
    wave_sizes: Sequence[int] = (60, 35),
    wave_gap: float = 240.0,
    arrival_rate: float = 0.3,
    mean_dwell: float = 500.0,
    seed: int = 11,
    policy: Optional[TransitionPolicy] = None,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    verify: bool = True,
    solve_policy: Optional[str] = None,
) -> FleetResult:
    """Drive Poisson tenant waves through a FleetManager; report the fleet.

    Every tenant is a seeded kiosk instance: its occupancy trace comes
    from :class:`KioskEnvironment`, its schedules from per-width tables
    built through one shared :class:`ScheduleCache` (a fresh directory
    per run unless ``cache_dir`` pins one, so wave-2 hit rates measure
    real cross-tenant amortization, not leftovers from earlier runs).
    ``solve_policy`` picks the :mod:`repro.approx` ladder rung for every
    table build (``exact`` | ``bounded[:eps]`` | ``list`` — admission
    latency drops under the approximate rungs while the F001/S013
    verification still gates every served schedule).  ``workers`` takes
    ``1`` only: the off-line solves run in-process, and any other value
    raises :class:`~repro.errors.ExperimentError`.  The keyword stays only
    because ``benchmarks/e2e`` passes ``workers=1``.
    """
    if workers != 1:
        raise ExperimentError(
            f"workers={workers!r}: the off-line solve runs in-process, "
            "so run_fleet takes workers=1 only"
        )
    cluster = cluster or ClusterSpec(nodes=16, procs_per_node=4)
    policy = policy or CheckpointTransition(setup=0.25)
    rng = random.Random(seed)
    classes = kiosk_tenant_classes()

    own_cache = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-fleet-cache-")
    cache = ScheduleCache(root)
    mgr = FleetManager(cluster, policy=policy, cache=cache, solve_policy=solve_policy)

    # Seeded event tape: Poisson arrivals per wave, exponential dwells,
    # kiosk-driven regime changes in between.
    events: list[tuple[float, str, int, Optional[State]]] = []
    wave_of: dict[int, int] = {}
    spec_of: dict[int, TenantSpec] = {}
    seq = 0
    wave_start = 0.0
    for wave, size in enumerate(wave_sizes, start=1):
        t = wave_start
        for _ in range(size):
            t += rng.expovariate(arrival_rate)
            dwell = rng.expovariate(1.0 / mean_dwell)
            spec = classes[seq % len(classes)]
            wave_of[seq] = wave
            spec_of[seq] = spec
            events.extend(_tenant_events(seq, t, dwell, seed))
            seq += 1
        wave_start = t + wave_gap
    order = {"arrive": 0, "regime": 1, "depart": 2}
    events.sort(key=lambda e: (e[0], order[e[1]], e[2]))

    ids: dict[int, str] = {}
    peak = 0
    util_samples: list[float] = []
    wave_stats = {
        w: WaveStats(wave=w, arrivals=0, admitted=0, queued=0, rejected=0,
                     cache_hits=0, cache_misses=0)
        for w in range(1, len(wave_sizes) + 1)
    }
    for time, kind, n, payload in events:
        if kind == "arrive":
            ws = wave_stats[wave_of[n]]
            hits0, misses0 = cache.stats.hits, cache.stats.misses
            decision = mgr.admit(spec_of[n], time=time)
            ids[n] = decision.tenant_id
            ws.arrivals += 1
            ws.cache_hits += cache.stats.hits - hits0
            ws.cache_misses += cache.stats.misses - misses0
            if decision.action == "admitted":
                ws.admitted += 1
            elif decision.action == "queued":
                ws.queued += 1
            else:
                ws.rejected += 1
        elif kind == "regime":
            tid = ids.get(n)
            if tid is not None and tid in mgr.tenants:
                hits0, misses0 = cache.stats.hits, cache.stats.misses
                mgr.on_regime(tid, payload, time=time)
                ws = wave_stats[wave_of[n]]
                ws.cache_hits += cache.stats.hits - hits0
                ws.cache_misses += cache.stats.misses - misses0
        else:  # depart
            tid = ids.get(n)
            if tid is not None and (tid in mgr.tenants or tid in mgr.queue):
                mgr.depart(tid, time=time)
        peak = max(peak, mgr.admitted_count)
        util_samples.append(mgr.utilization())

    findings_errors = findings_warnings = 0
    if verify and mgr.admitted_count:
        from repro.analysis import verify_packing

        report = verify_packing(
            mgr.packing, mgr.view.base, mgr.tenants, dead_procs=mgr.view.dead_procs
        )
        counts = report.counts()
        findings_errors = counts["error"]
        findings_warnings = counts["warning"]

    by_class: dict[str, dict] = {}
    for spec in classes:
        by_class[spec.name] = {
            "name": spec.name, "priority": spec.priority,
            "tenants": 0, "slips": 0, "demotions": 0, "stall": 0.0,
        }
    for t in list(mgr.tenants.values()) + mgr.departed:
        row = by_class[t.name]
        row["tenants"] += 1
        row["slips"] += t.slips
        row["demotions"] += t.demotions
        row["stall"] += t.total_stall

    latencies = [r.latency_s for r in mgr.repacks]
    result = FleetResult(
        capacity=cluster.total_processors,
        cluster=f"{cluster.nodes}x{cluster.procs_per_node}",
        offered=mgr.stats.offered,
        admitted=mgr.stats.admitted,
        rejected=mgr.stats.rejected,
        peak_concurrent=peak,
        final_concurrent=mgr.admitted_count,
        final_queued=mgr.queued_count,
        departures=mgr.departures,
        repacks=len(mgr.repacks),
        repack_latency_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
        repack_latency_max_s=max(latencies) if latencies else 0.0,
        total_stall=mgr.controller.total_stall,
        migrations=sum(r.moved for r in mgr.repacks),
        demotions=sum(r.demoted for r in mgr.repacks),
        promotions=sum(r.promoted for r in mgr.repacks),
        mean_utilization=sum(util_samples) / len(util_samples) if util_samples else 0.0,
        peak_utilization=max(util_samples) if util_samples else 0.0,
        waves=[wave_stats[w] for w in sorted(wave_stats)],
        class_rows=list(by_class.values()),
        findings_errors=findings_errors,
        findings_warnings=findings_warnings,
        cache_summary=cache.stats.summary(),
        solve_policy=solve_policy or "exact",
    )
    if own_cache:
        shutil.rmtree(root, ignore_errors=True)
    return result
