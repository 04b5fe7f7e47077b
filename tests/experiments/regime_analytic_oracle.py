"""The analytic ``run_regime`` as it stood before the regime-switched row was
executed — kept verbatim (below this note) as the oracle
``test_regime_executed.py`` holds the executed row against.

It never runs a frame: every row, the regime-switched one included, is
``perf[(k, m)]`` multiplied by interval lengths, with
``policy.effect(...).stall`` charged from the formula and clipped to the
interval.  ``repro.experiments.regime`` still computes its fixed-k and
oracle rows this way (labelled as modelled); only the switched row differs.

The original module notes follow.

§3.4: scheduling under constrained dynamism (the headline mechanism).

The paper's §3.4 has no figure — the contribution is the mechanism:
pre-compute an optimal schedule per state, detect state changes, switch by
table look-up, and amortize the transition because "changes in state are
infrequent".  This experiment makes that argument quantitative on a
simulated hour at the kiosk:

* generate a customer arrival/departure trace (1..5 people);
* compare three policies over the trace:

  1. **fixed-k** — run the schedule pre-computed for state k the whole
     time.  A fixed schedule fixes both its *structure* (replayed under
     the actual state's durations, :mod:`repro.core.replay`) and its
     *initiation interval* (the digitizer keeps firing at state k's
     rate).  When the actual state is heavier than k the fixed period
     under-estimates the sustainable interval and the pipeline saturates —
     exactly the tuning curve's backlogged regime, adding a buffered
     queueing delay on top of the stretched latency.  When the actual
     state is lighter, latency is fine but the digitizer fires too slowly
     and throughput is wasted.
  2. **regime-switched** — the paper's approach, paying a drain-style
     stall at every state change;
  3. **oracle** — regime switching with free transitions (upper bound).

The saturation model is calibrated against the Figure 3 measurements: with
channel capacity 2 the simulated saturated latency is the service latency
plus ``BUFFERED_FRAMES`` extra initiation intervals of queueing (the
in-flight frames held in the bounded channels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.kiosk import KioskEnvironment, StateInterval
from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.replay import replay_pipelined
from repro.core.table import ScheduleTable
from repro.core.transition import DrainTransition, TransitionPolicy
from repro.errors import ExperimentError
from repro.experiments.report import format_table
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace

__all__ = ["PolicyOutcome", "RegimeResult", "run_regime", "BUFFERED_FRAMES"]

#: In-flight frames buffered in the bounded channels when the pipeline is
#: saturated (calibrated against the Figure 3 DES runs at capacity 2: the
#: measured saturated latency there is the service latency plus about
#: three initiation intervals).
BUFFERED_FRAMES = 3.0

_EPS = 1e-9


@dataclass(frozen=True)
class PolicyOutcome:
    """Aggregate performance of one scheduling policy over the trace."""

    name: str
    mean_latency: float       # time-weighted over the trace
    worst_latency: float
    frames_processed: float   # sum over intervals of duration / rate
    saturated_time: float     # seconds spent in the backlogged regime
    switches: int
    total_stall: float

    def summary_row(self) -> list:
        return [
            self.name,
            self.mean_latency,
            self.worst_latency,
            round(self.frames_processed, 1),
            round(self.saturated_time, 1),
            self.switches,
            round(self.total_stall, 1),
        ]


@dataclass
class RegimeResult:
    """All policies over one kiosk trace."""

    horizon: float
    intervals: list[StateInterval]
    outcomes: list[PolicyOutcome]

    def outcome(self, name: str) -> PolicyOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise ExperimentError(f"no policy {name!r}")

    def switching_beats_all_fixed(self, frame_slack: float = 0.97) -> bool:
        """The paper's claim: regime switching beats every fixed schedule.

        "Beats" on the paper's own objective order: never worse on latency,
        and at least as many frames (up to the small stall-induced slack) —
        with a strict win on one axis against every fixed alternative.
        """
        s = self.outcome("regime-switched")
        verdicts = []
        for f in self.outcomes:
            if not f.name.startswith("fixed-"):
                continue
            no_worse = (
                s.mean_latency <= f.mean_latency + _EPS
                and s.frames_processed >= f.frames_processed * frame_slack
            )
            strictly = (
                s.mean_latency < f.mean_latency - _EPS
                or s.frames_processed > f.frames_processed + _EPS
            )
            verdicts.append(no_worse and strictly)
        return bool(verdicts) and all(verdicts)

    def render(self) -> str:
        occupancy = ", ".join(
            f"[{iv.start:.0f}-{iv.end:.0f}s: {iv.n_people}]" for iv in self.intervals[:12]
        )
        rows = [o.summary_row() for o in self.outcomes]
        table = format_table(
            ["policy", "mean latency (s)", "worst latency (s)", "frames",
             "saturated (s)", "switches", "stall (s)"],
            rows,
            title=f"Regime switching over a {self.horizon:.0f}s kiosk trace",
        )
        return (
            f"occupancy trace (first intervals): {occupancy}\n\n{table}\n"
            f"regime switching beats every fixed schedule: "
            f"{self.switching_beats_all_fixed()}"
        )


def run_regime(
    horizon: float = 3600.0,
    cluster: Optional[ClusterSpec] = None,
    space: Optional[StateSpace] = None,
    policy: Optional[TransitionPolicy] = None,
    kiosk: Optional[KioskEnvironment] = None,
    graph: Optional[TaskGraph] = None,
    buffered_frames: float = BUFFERED_FRAMES,
) -> RegimeResult:
    """Run the regime-switching comparison over a kiosk trace."""
    cluster = cluster or SINGLE_NODE_SMP(4)
    space = space or StateSpace.range("n_models", 1, 5)
    policy = policy or DrainTransition(setup=0.25)
    kiosk = kiosk or KioskEnvironment(
        arrival_rate=1.0 / 90.0, mean_dwell=180.0, min_people=1,
        max_people=max(s["n_models"] for s in space), seed=42,
    )
    graph = graph or build_tracker_graph()
    intervals = kiosk.trace(horizon)
    if not intervals:
        raise ExperimentError("kiosk trace is empty")

    table = ScheduleTable.build(graph, space, OptimalScheduler(cluster))

    # perf[(k, m)] = (service latency, sustainable II) when the schedule
    # structure pre-computed for state k runs under actual state m.
    perf: dict[tuple[int, int], tuple[float, float]] = {}
    for k_state in space:
        sol = table.lookup(k_state)
        k = k_state["n_models"]
        for m_state in space:
            m = m_state["n_models"]
            if m == k:
                perf[(k, m)] = (sol.latency, sol.period)
            else:
                replayed = replay_pipelined(sol.iteration, graph, m_state, cluster)
                perf[(k, m)] = (replayed.latency, replayed.period)

    def interval_effect(period: float, k: int, m: int, duration: float):
        """(latency, frames, saturated_seconds) for one interval."""
        service_latency, sustainable_ii = perf[(k, m)]
        if period < sustainable_ii - _EPS:
            # Digitizer outpaces the pipeline: bounded channels fill and
            # every frame queues behind the in-flight backlog.
            latency = service_latency + buffered_frames * sustainable_ii
            return latency, duration / sustainable_ii, duration
        return service_latency, duration / period, 0.0

    outcomes: list[PolicyOutcome] = []

    for k_state in space:
        k = k_state["n_models"]
        period_k = table.lookup(k_state).period
        lat_weighted = worst = frames = saturated = 0.0
        for iv in intervals:
            lat, fr, sat = interval_effect(period_k, k, iv.n_people, iv.duration)
            lat_weighted += lat * iv.duration
            worst = max(worst, lat)
            frames += fr
            saturated += sat
        outcomes.append(
            PolicyOutcome(
                name=f"fixed-{k}",
                mean_latency=lat_weighted / horizon,
                worst_latency=worst,
                frames_processed=frames,
                saturated_time=saturated,
                switches=0,
                total_stall=0.0,
            )
        )

    for name, pay_stall in (("regime-switched", True), ("oracle", False)):
        lat_weighted = worst = frames = saturated = stall_total = 0.0
        switches = 0
        prev: Optional[int] = None
        for iv in intervals:
            k = iv.n_people
            lat, period = perf[(k, k)]
            duration = iv.duration
            if prev is not None and prev != k:
                switches += 1
                if pay_stall:
                    effect = policy.effect(
                        table.lookup(State(n_models=prev)),
                        table.lookup(State(n_models=k)),
                    )
                    stall = min(effect.stall, duration)
                    stall_total += stall
                    duration -= stall  # no new frames start while draining
            lat_weighted += lat * iv.duration
            worst = max(worst, lat)
            frames += max(duration, 0.0) / period
            prev = k
        outcomes.append(
            PolicyOutcome(
                name=name,
                mean_latency=lat_weighted / horizon,
                worst_latency=worst,
                frames_processed=frames,
                saturated_time=saturated,
                switches=switches,
                total_stall=stall_total,
            )
        )

    return RegimeResult(horizon=horizon, intervals=intervals, outcomes=outcomes)
