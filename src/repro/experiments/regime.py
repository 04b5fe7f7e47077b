"""§3.4: scheduling under constrained dynamism (the headline mechanism).

The paper's §3.4 has no figure — the contribution is the mechanism:
pre-compute an optimal schedule per state, detect state changes, switch by
table look-up, and amortize the transition because "changes in state are
infrequent".  This experiment makes that argument quantitative on a
simulated hour at the kiosk:

* generate a customer arrival/departure trace (1..5 people);
* compare three policies over the trace:

  1. **fixed-k** (*modelled*) — run the schedule pre-computed for state k
     the whole time.  A fixed schedule fixes both its *structure*
     (replayed under the actual state's durations,
     :mod:`repro.core.replay`) and its *initiation interval* (the
     digitizer keeps firing at state k's rate).  When the actual state is
     heavier than k the fixed period under-estimates the sustainable
     interval and the pipeline saturates — exactly the tuning curve's
     backlogged regime, adding a buffered queueing delay on top of the
     stretched latency.  When the actual state is lighter, latency is fine
     but the digitizer fires too slowly and throughput is wasted.
  2. **regime-switched** (*executed*) — the paper's approach, run: one
     :class:`~repro.runtime.static_exec.EpochDriver` world for the whole
     trace, every state change of the trace an event on its heap that a
     :class:`~repro.core.table.RegimeSwitcher` observes, looks up and
     switches on, the transition policy's stall and its verdict on the
     frames in flight applied by the driver.  The row is read off the
     :class:`~repro.runtime.result.ExecutionResult`: frames completed,
     their mean and worst latency from launch slot to completion (so the
     mean is frame-weighted), switches, stall, frames lost at switches,
     slips.
  3. **oracle** (*modelled*, a bound) — regime switching with free
     transitions.  It cannot be executed: with no stall the new pattern's
     first frames collide with old ones still in flight (on the default
     hour 26 475 slips, 5 307 of 5 554 frames late).

The modelled rows multiply ``perf[(k, m)]`` by interval lengths.  Their
saturation model is calibrated against the Figure 3 measurements: with
channel capacity 2 the simulated saturated latency is the service latency
plus ``BUFFERED_FRAMES`` extra initiation intervals of queueing (the
in-flight frames held in the bounded channels).  Executing the fixed-k rows
needs a source that blocks on bounded channels (ROADMAP item 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.kiosk import KioskEnvironment, StateInterval
from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.replay import replay_pipelined
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.core.transition import DrainTransition, TransitionPolicy
from repro.errors import ExperimentError
from repro.experiments.report import format_table
from repro.graph.taskgraph import TaskGraph
from repro.runtime.result import ExecutionResult
from repro.runtime.static_exec import EpochDriver
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommModel
from repro.state import StateSpace

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
    mean_latency: float       # modelled: time-weighted; executed: per frame
    worst_latency: float
    frames_processed: float   # modelled: sum of duration / rate; executed: completed
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
    """All policies over one kiosk trace; ``executed`` is the run behind
    the regime-switched row (``meta["epochs"]``, ``"frames_lost_transition"``,
    ``"slips"``)."""

    horizon: float
    intervals: list[StateInterval]
    outcomes: list[PolicyOutcome]
    executed: ExecutionResult

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
        run = self.executed
        return (
            f"occupancy trace (first intervals): {occupancy}\n\n{table}\n"
            f"executed: regime-switched — one world, {len(run.meta['epochs'])} "
            f"epochs, {run.emitted} frames started, "
            f"{len(run.meta['frames_lost_transition'])} lost at switches, "
            f"{run.meta['slips']} slips\n"
            f"modelled: fixed-k, oracle (a bound: a zero-stall switch is not "
            f"executable — new-pattern frames collide with old ones in flight)\n"
            f"regime switching beats every fixed schedule: "
            f"{self.switching_beats_all_fixed()}"
        )


def frame_latencies(run: ExecutionResult, table: ScheduleTable) -> dict[int, float]:
    """Launch slot -> completion, for every frame ``run`` completed.

    Frame ``ts`` of the epoch ``(start, first, state)`` was launched at
    ``start + (ts - first) * II(state)``: an epoch starts its timestamps in
    order, replayed ones first.
    """
    epochs = run.meta["epochs"]
    latencies = {}
    for i, (start, first, state) in enumerate(epochs):
        until = epochs[i + 1][1] if i + 1 < len(epochs) else run.emitted
        period = table.lookup(state).period
        for ts in range(first, until):
            if ts in run.completion_times:
                latencies[ts] = run.completion_times[ts] - (start + (ts - first) * period)
    return latencies


def run_regime(
    horizon: float = 3600.0,
    cluster: Optional[ClusterSpec] = None,
    space: Optional[StateSpace] = None,
    policy: Optional[TransitionPolicy] = None,
    kiosk: Optional[KioskEnvironment] = None,
    graph: Optional[TaskGraph] = None,
) -> RegimeResult:
    """Run the regime-switching comparison over a kiosk trace.

    ``policy`` is the transition the executed regime-switched row pays at
    every state change (default: drain plus 0.25 s of set-up).
    """
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

    def modelled(name: str, fixed: Optional[int], switches: int) -> PolicyOutcome:
        """The trace multiplied out under schedule ``fixed`` throughout, or —
        ``None`` — under each interval's own (free, instantaneous switches)."""
        lat_weighted = worst = frames = saturated = 0.0
        for iv in intervals:
            k = fixed or iv.n_people
            period = perf[(k, k)][1]
            latency, sustainable_ii = perf[(k, iv.n_people)]
            if period < sustainable_ii - _EPS:
                # Digitizer outpaces the pipeline: bounded channels fill and
                # every frame queues behind the in-flight backlog.
                latency += BUFFERED_FRAMES * sustainable_ii
                period = sustainable_ii
                saturated += iv.duration
            lat_weighted += latency * iv.duration
            worst = max(worst, latency)
            frames += iv.duration / period
        return PolicyOutcome(
            name=name,
            mean_latency=lat_weighted / horizon,
            worst_latency=worst,
            frames_processed=frames,
            saturated_time=saturated,
            switches=switches,
            total_stall=0.0,
        )

    outcomes = [modelled(f"fixed-{s['n_models']}", s["n_models"], 0) for s in space]

    # The paper's mechanism, executed: one world for the whole trace, each
    # state change an observation on its heap.
    switcher = RegimeSwitcher(
        table, RegimeDetector("n_models", intervals[0].state()), policy
    )
    lost: list[int] = []
    driver = EpochDriver(graph, intervals[0].state(), cluster, CommModel.free(cluster))
    for iv in intervals[1:]:
        driver.at(iv.start, switcher.observe, iv.start, iv.n_people)
    driver.start(switcher, horizon=horizon, on_loss=lambda ts, _cause: lost.append(ts))
    driver.sim.run()
    driver.release()
    executed = driver.result({"frames_lost_transition": sorted(lost)})
    latencies = frame_latencies(executed, table).values()
    outcomes.append(
        PolicyOutcome(
            name="regime-switched",
            mean_latency=sum(latencies) / len(latencies),
            worst_latency=max(latencies),
            frames_processed=float(len(latencies)),
            saturated_time=0.0,
            switches=switcher.switch_count,
            total_stall=switcher.total_stall,
        )
    )

    outcomes.append(modelled("oracle", None, len(intervals) - 1))

    return RegimeResult(
        horizon=horizon, intervals=intervals, outcomes=outcomes, executed=executed
    )
