"""repro.obs — observability & cost-model calibration.

The production-telemetry layer the ROADMAP's "serving heavy traffic"
north star needs, and the runtime half of the paper's measured-cost
story:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry`
  (counters, gauges, histograms, labeled series) with Prometheus-text
  and JSON exposition;
* :mod:`repro.obs.export` — JSONL streaming of a run's trace records
  (the records themselves, and their one Chrome-trace exporter, are
  :mod:`repro.sim.trace`'s);
* :mod:`repro.obs.drift` / :mod:`repro.obs.calibrate` — empirical cost
  distributions vs the scheduling model, with EWMA drift detection
  (§3.4: detectable, infrequent regime changes);
* :mod:`repro.obs.recalibrate` — drift → warm table re-build
  (PR-2 ``core.parallel``/``core.cache`` path) → schedule switch.

:class:`Observability` is the bundle executors accept via ``obs=``: the
registry and (optionally) a calibrator.  A runtime writes each execution,
STM operation and mark once, into its run's
:class:`~repro.sim.trace.TraceRecorder`; ``obs=`` subscribes
:meth:`Observability.on_record` to that trace, so the metrics and the
calibration (:meth:`CostCalibrator.on_record`) are a view of the one
record and a run nobody observes pays for no listener.  The remaining ``on_*`` hooks carry what is not a trace
record (completed frames, the active period, the approximation ladder).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.calibrate import (
    CalibrationReport,
    CalibrationRow,
    CostCalibrator,
    CostStats,
    ScaledCost,
    graph_with_costs,
    node_class_of,
    tier_name,
)
from repro.obs.drift import DriftDetected, DriftDetector, DriftError, Ewma
from repro.obs.export import JsonlSpanSink, read_jsonl_spans
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.recalibrate import CalibrationController, Recalibration
from repro.sim.trace import ExecSpan, ItemEvent, Mark, Record

__all__ = [
    "Observability",
    # metrics
    "MetricsRegistry",
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "parse_prometheus_text",
    # trace streaming
    "JsonlSpanSink",
    "read_jsonl_spans",
    # drift + calibration
    "Ewma",
    "DriftError",
    "DriftDetected",
    "DriftDetector",
    "CostStats",
    "ScaledCost",
    "CostCalibrator",
    "CalibrationRow",
    "CalibrationReport",
    "graph_with_costs",
    "node_class_of",
    "tier_name",
    "CalibrationController",
    "Recalibration",
]


class Observability:
    """The instrumentation bundle executors accept as ``obs=``.

    Parameters
    ----------
    registry:
        Created when omitted; pass a shared one to aggregate several
        bundles into one exposition (one bundle may observe several runs).
    calibrator:
        Optional :class:`CostCalibrator`; when present, execution and
        communication observations also feed drift detection.

    :meth:`on_record` and the ``on_*`` hooks are the single integration
    surface — executors never touch the registry directly, so the metric
    taxonomy stays in one place.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        calibrator: Optional[CostCalibrator] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.calibrator = calibrator
        r = self.registry
        self._exec_seconds = r.histogram(
            "repro_task_seconds", "Observed task execution time", ("task", "variant")
        )
        self._exec_total = r.counter(
            "repro_task_executions_total", "Task executions", ("task",)
        )
        self._items = r.counter(
            "repro_stm_items_total", "STM channel item operations", ("channel", "kind")
        )
        self._comm_seconds = r.histogram(
            "repro_comm_seconds", "Observed transfer time", ("tier",)
        )
        self._frame_latency = r.histogram(
            "repro_frame_latency_seconds", "End-to-end frame latency"
        )
        self._frames = r.counter("repro_frames_completed_total", "Frames completed")
        self._slips = r.counter(
            "repro_schedule_slips_total", "Placements starting after their scheduled time"
        )
        self._detections = r.counter(
            "repro_fault_detections_total", "Fault detections", ("kind",)
        )
        self._failovers = r.counter("repro_failovers_total", "Executed failovers")
        self._failover_stall = r.counter(
            "repro_failover_stall_seconds_total", "Cumulative failover stall"
        )
        self._drifts = r.counter(
            "repro_drift_signals_total", "Confirmed cost-model drift signals"
        )
        self._period = r.gauge(
            "repro_schedule_period_seconds", "Active schedule initiation interval"
        )
        self._approx_gap = r.histogram(
            "repro_approx_gap",
            "Certified optimality-gap bound of served schedules",
            ("policy",),
            buckets=(0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0),
        )
        self._approx_solves = r.counter(
            "repro_approx_solves_total",
            "Schedule solves served, by ladder rung",
            ("policy",),
        )
        self._approx_lazy = r.counter(
            "repro_approx_lazy_total",
            "Lazy schedule-table lookups, by outcome",
            ("kind",),
        )
        # Label resolution goes through the registry lock; the listener runs
        # on every task execution and STM operation, so resolved children
        # are memoized here (benign race: duplicate lookups return the same
        # child, and dict reads/writes are atomic under the GIL).
        self._exec_children: dict = {}
        self._item_children: dict = {}
        #: (task, timestamp, start, end) of the last execution counted
        self._last_exec: Optional[tuple] = None

    # -- the trace listener ----------------------------------------------------

    def on_record(self, record: Record) -> None:
        """One record of a run's :class:`~repro.sim.trace.TraceRecorder`;
        an executor given ``obs=`` subscribes this method to its trace.

        An :class:`~repro.sim.trace.ExecSpan` counts one execution — the
        per-processor copies a data-parallel placement writes back to back
        are one.  An :class:`~repro.sim.trace.ItemEvent` counts one STM
        operation.  A :class:`~repro.sim.trace.Mark` counts its kind.
        Spans and transfers also go to the calibrator's
        :meth:`~repro.obs.calibrate.CostCalibrator.on_record`.
        """
        kind = type(record)
        if kind is ItemEvent:
            key = (record.channel, record.kind)
            counter = self._item_children.get(key)
            if counter is None:
                counter = self._item_children[key] = self._items.labels(*key)
            counter.inc()
            return
        if kind is ExecSpan:
            key = (record.task, record.timestamp, record.start, record.end)
            if key == self._last_exec:
                return
            self._last_exec = key
            children = self._exec_children.get((record.task, record.variant))
            if children is None:
                children = self._exec_children[(record.task, record.variant)] = (
                    self._exec_total.labels(record.task),
                    self._exec_seconds.labels(record.task, record.variant),
                )
            children[0].inc()
            children[1].observe(record.end - record.start)
        else:
            self._on_mark(record)
        if self.calibrator is not None and self.calibrator.on_record(record):
            self._drifts.inc()

    def _on_mark(self, mark: Mark) -> None:
        if mark.cat == "comm":
            self._comm_seconds.labels(mark.args["tier"]).observe(mark.end - mark.start)
        elif mark.cat == "sched":
            self._slips.inc()
        elif mark.name == "failover":
            self._failovers.inc()
            self._failover_stall.inc(mark.end - mark.start)
        else:
            self._detections.labels(mark.args["kind"]).inc()

    def on_frame(self, timestamp: int, latency: float) -> None:
        """One frame completed end to end."""
        self._frames.inc()
        self._frame_latency.observe(latency)

    def on_period(self, period: float) -> None:
        """The active schedule's initiation interval changed."""
        self._period.set(period)

    # -- approximation ladder --------------------------------------------------

    def on_approx_solve(self, policy: str, gap: float) -> None:
        """One ladder solve served ``policy`` ∈ {exact, bounded, list} with
        a certified gap bound of ``gap`` (0 for exact)."""
        self._approx_solves.labels(policy).inc()
        self._approx_gap.labels(policy).observe(gap)

    def on_lazy(self, kind: str) -> None:
        """One lazy-table lookup outcome: ``hit`` / ``miss``."""
        self._approx_lazy.labels(kind).inc()

    # -- exposition -----------------------------------------------------------

    @property
    def drift_signals(self) -> list[DriftDetected]:
        """Drift signals the calibrator has confirmed so far."""
        return list(self.calibrator.drifts) if self.calibrator else []

    def prometheus(self) -> str:
        """Prometheus text exposition of all metrics."""
        return self.registry.to_prometheus_text()

    def snapshot(self) -> dict:
        """JSON-able snapshot of all metrics."""
        return self.registry.snapshot()

    def __repr__(self) -> str:
        return (
            f"Observability({len(self.registry.families())} metric families, "
            f"calibrator={'on' if self.calibrator else 'off'})"
        )
