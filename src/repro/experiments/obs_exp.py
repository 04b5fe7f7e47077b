"""Observability experiment: measured-cost drift, detected and repaired.

The §3.4 machinery assumes the off-line cost model matches reality; this
experiment makes the model wrong on purpose and shows the observability
subsystem noticing and fixing it.  The tracker's detection stage is
perturbed (its *true* cost is ``perturb`` times the modeled one — a
slower node, a mis-calibrated Table 1, a heavier scene), the runtime
keeps executing the stale pre-computed schedule, and the instrumented
executor feeds every span to the :class:`~repro.obs.CostCalibrator`:

1. the stale schedule saturates — the digitizer keeps emitting at the
   stale initiation interval while the pipeline can no longer keep up,
   so arrival latency grows linearly with the frame index;
2. the drift detector confirms the modeled-vs-observed error (EWMA,
   consecutive breaches) and raises :class:`~repro.obs.DriftDetected`;
3. the :class:`~repro.obs.CalibrationController` re-builds the schedule
   table from the calibrated costs (warm path: the
   :class:`~repro.core.cache.ScheduleCache`) and switches;
4. the re-built schedule runs slip-free at its honest (longer) period,
   and measured latency collapses back to the service latency.

The experiment also measures what the telemetry itself costs: the live
threaded runtime runs the real tracker kernels with and without the
``obs`` bundle attached, and reports the relative wall-clock overhead.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from statistics import mean, median
from typing import Optional

from repro.core.cache import ScheduleCache
from repro.core.optimal import OptimalScheduler
from repro.core.replay import replay_with_state
from repro.core.schedule import PipelinedSchedule
from repro.core.table import ScheduleTable
from repro.core.transition import DrainTransition
from repro.experiments.report import format_table
from repro.obs import (
    CalibrationController,
    CostCalibrator,
    Observability,
    ScaledCost,
    graph_with_costs,
)
from repro.runtime.result import ExecutionResult
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace

__all__ = ["ObsRunRow", "ObsResult", "run_obs", "measure_overhead"]

PERTURBED_TASK = "T4"  # target detection — the dominant, data-parallel stage

# Prometheus series worth quoting in the report (full exposition is long).
_PROM_INTERESTING = (
    "repro_frames_completed_total",
    "repro_schedule_slips_total",
    "repro_drift_signals_total",
    "repro_schedule_period_seconds",
    "repro_task_executions_total",
)


@dataclass(frozen=True)
class ObsRunRow:
    """One instrumented run: which schedule, what it measured."""

    label: str
    period: float
    completed: int
    emitted: int
    slips: int
    mean_latency: float
    max_latency: float

    @classmethod
    def from_result(cls, label: str, res: ExecutionResult) -> "ObsRunRow":
        lats = res.latencies()
        return cls(
            label=label,
            period=res.meta["period"],
            completed=res.completed_count,
            emitted=res.emitted,
            slips=res.meta["slips"],
            mean_latency=mean(lats) if lats else 0.0,
            max_latency=max(lats) if lats else 0.0,
        )


@dataclass
class ObsResult:
    """Everything the drift demo produced, ready to render."""

    perturb: float
    rows: list[ObsRunRow]
    calibration_report: str
    rebuild_summaries: list[str]
    drift_count: int
    cache_hits: int
    cache_misses: int
    prometheus_excerpt: str
    #: The live overhead's block estimates, percent (see measure_overhead)
    overhead_blocks: Optional[list[float]]

    @property
    def stale(self) -> ObsRunRow:
        return next(r for r in self.rows if r.label == "stale")

    @property
    def rebuilt(self) -> ObsRunRow:
        return next(r for r in self.rows if r.label == "rebuilt")

    @property
    def drift_repaired(self) -> bool:
        """Did the loop close: drift fired, rebuilt run beats the stale one?"""
        return (
            self.drift_count > 0
            and bool(self.rebuild_summaries)
            and self.rebuilt.mean_latency < self.stale.mean_latency
            and self.rebuilt.slips < self.stale.slips
        )

    def render(self) -> str:
        table = format_table(
            ["run", "II (s)", "done", "slips", "mean lat (s)", "max lat (s)"],
            [
                [
                    r.label,
                    f"{r.period:.4g}",
                    f"{r.completed}/{r.emitted}",
                    str(r.slips),
                    f"{r.mean_latency:.4g}",
                    f"{r.max_latency:.4g}",
                ]
                for r in self.rows
            ],
            title=f"Tracker under a {self.perturb:g}x cost perturbation on "
                  f"{PERTURBED_TASK}",
        )
        lines = [table, "", self.calibration_report, ""]
        lines.append(f"drift signals confirmed: {self.drift_count}")
        for s in self.rebuild_summaries:
            lines.append(f"  {s}")
        lines.append(
            f"re-build cache: {self.cache_hits} hits / {self.cache_misses} misses"
        )
        lines.append("")
        lines.append("Prometheus exposition (excerpt):")
        lines.append(self.prometheus_excerpt)
        if self.overhead_blocks:
            # One figure would hide that the blocks disagree by more than
            # the hooks cost; the range shows how far to trust the median.
            blocks = self.overhead_blocks
            lines.append(
                f"\nthreaded-runtime instrumentation overhead: "
                f"{median(blocks):+.2f}% CPU time, median of {len(blocks)} blocks "
                f"ranging {min(blocks):+.2f}% .. {max(blocks):+.2f}%"
            )
        lines.append(
            f"\ndrift detected, repaired and measurably faster: "
            f"{self.drift_repaired}"
        )
        return "\n".join(lines)


def _prometheus_excerpt(obs: Observability) -> str:
    """The handful of series the narrative is about (sample values)."""
    keep: list[str] = []
    for line in obs.prometheus().splitlines():
        if line.startswith("#"):
            continue
        if any(line.startswith(name) for name in _PROM_INTERESTING):
            keep.append(f"  {line}")
    return "\n".join(keep)


def measure_overhead(
    frames: int = 32,
    repeats: int = 16,
    frame_shape: tuple[int, int] = (144, 192),
) -> list[float]:
    """Relative CPU cost of the obs hooks on the live threaded tracker.

    Runs the real kernels through :class:`ThreadedRuntime` with and
    without an :class:`Observability` bundle and compares process CPU
    time, not wall clock: hook work is pure CPU, and CPU time is what a
    shared machine cannot inflate (ambient load perturbs wall clock by
    several times the hook cost).  Frames are large enough that kernel
    time dominates thread start-up; a warm-up run absorbs first-touch
    costs (imports, numpy buffers).  Each run collects garbage *before*
    timing and keeps GC off *during* it — leftover cycles from earlier
    runs otherwise inflate later runs, a drift that systematically
    biases whichever variant runs second.  Bare/instrumented runs
    alternate (order flipping every pair); pairs are grouped into
    blocks, each block compares its best bare CPU against its best
    instrumented CPU (CPU noise is strictly additive, so the minima are
    the deterministic cost floors).  Returns every block's estimate, in
    percent (slightly negative ones are the noise floor): their median is
    the figure, their range what a load burst did to it.
    """
    import gc
    import time as _time

    from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
    from repro.apps.video import VideoSource
    from repro.runtime.threaded import ThreadedRuntime

    h, w = frame_shape

    def one_cpu(obs: Optional[Observability]) -> float:
        video = VideoSource(n_targets=2, height=h, width=w, seed=5)
        live, statics = attach_kernels(
            build_tracker_graph(frame_shape=frame_shape), video
        )
        rt = ThreadedRuntime(
            live, State(n_models=2), static_inputs=statics,
            op_timeout=30, obs=obs,
        )
        gc.collect()
        gc.disable()
        try:
            t0 = _time.process_time()
            rt.run(frames)
            return _time.process_time() - t0
        finally:
            gc.enable()

    one_cpu(None)  # warm-up: imports, numpy allocations, thread machinery
    block_size = max(1, repeats // 3)
    estimates: list[float] = []
    bare_cpus: list[float] = []
    obs_cpus: list[float] = []
    for i in range(repeats):
        legs = [(bare_cpus, None), (obs_cpus, Observability())]
        for out, bundle in legs if i % 2 == 0 else reversed(legs):
            out.append(one_cpu(bundle))
        if len(bare_cpus) == block_size or i == repeats - 1:
            bare = min(bare_cpus)
            if bare > 0:
                estimates.append((min(obs_cpus) - bare) / bare * 100.0)
            bare_cpus, obs_cpus = [], []
    return estimates


def run_obs(
    perturb: float = 2.5,
    iterations: int = 24,
    cluster: Optional[ClusterSpec] = None,
    space: Optional[StateSpace] = None,
    n_models: int = 2,
    overhead_frames: int = 32,
) -> ObsResult:
    """Run the full drift demo: perturb, detect, re-build, re-measure.

    ``overhead_frames=0`` skips the live overhead measurement (it runs
    real kernels, ~seconds of wall clock).
    """
    from repro.apps.tracker.graph import build_tracker_graph

    cluster = cluster or SINGLE_NODE_SMP(4)
    space = space or StateSpace.range("n_models", 1, 3)
    state = State(n_models=n_models)
    graph = build_tracker_graph()
    scheduler = OptimalScheduler(cluster)
    # A private cache keeps the hit/miss story deterministic (the default
    # cache dir persists across runs): the initial build stores every
    # state, the drift re-build misses them all (the calibrated costs
    # change every solve digest) and stores the corrected entries.
    cache = ScheduleCache(tempfile.mkdtemp(prefix="repro-obs-cache-"))
    table = ScheduleTable.build(graph, space, scheduler, cache=cache)
    sol = table.lookup(state)

    # The world the runtime actually lives in: PERTURBED_TASK costs
    # ``perturb`` times what the model says (chunk costs scale with it).
    true = graph_with_costs(
        graph,
        {PERTURBED_TASK: ScaledCost(graph.task(PERTURBED_TASK).cost, perturb)},
        name=f"{graph.name}@true",
    )

    rows: list[ObsRunRow] = []

    # 1. Baseline: the nominal schedule in the nominal world — calibration
    #    agrees with the model, nothing drifts.
    base_obs = Observability(calibrator=CostCalibrator(graph, state, cluster))
    base_res = StaticExecutor(graph, state, cluster, sol, obs=base_obs).run(iterations)
    rows.append(ObsRunRow.from_result("nominal", base_res))

    # 2. The stale run: same structure, true costs, stale (too-fast) period.
    #    Every frame slips a little further behind — §3.1's saturation.
    stale = PipelinedSchedule(
        replay_with_state(sol.iteration, true, state, cluster),
        period=sol.period,
        shift=sol.pipelined.shift,
        n_procs=sol.pipelined.n_procs,
        name=f"{sol.pipelined.name}@stale",
    )
    calibrator = CostCalibrator(graph, state, cluster)
    obs = Observability(calibrator=calibrator)
    controller = CalibrationController(
        table=table,
        space=space,
        scheduler=scheduler,
        calibrator=calibrator,
        policy=DrainTransition(setup=0.25),
        cache=cache,
    )
    stale_res = StaticExecutor(true, state, cluster, stale, obs=obs).run(iterations)
    rows.append(ObsRunRow.from_result("stale", stale_res))

    # 3. Close the loop: confirmed drift -> warm re-build -> switch.
    drifts = obs.drift_signals
    if drifts:
        controller.recalibrate(time=stale_res.horizon, drifts=drifts)

    # 4. The re-built schedule, still in the true world: honest period,
    #    no slips, latency back at service level.
    rebuilt_res = StaticExecutor(
        true, state, cluster, controller.active.pipelined, obs=obs
    ).run(iterations)
    rows.append(ObsRunRow.from_result("rebuilt", rebuilt_res))

    overhead = measure_overhead(frames=overhead_frames) if overhead_frames else None

    return ObsResult(
        perturb=perturb,
        rows=rows,
        calibration_report=calibrator.report().render(),
        rebuild_summaries=[r.summary() for r in controller.records],
        drift_count=len(drifts),
        cache_hits=cache.stats.hits,
        cache_misses=cache.stats.misses,
        prometheus_excerpt=_prometheus_excerpt(obs),
        overhead_blocks=overhead,
    )
