"""Cost-model calibration: empirical distributions vs the scheduling model.

Figure 6's off-line algorithm consumes *measured* execution and
communication times (Table 1).  The :class:`CostCalibrator` closes the
loop at runtime: it aggregates observed execution spans into empirical
cost distributions keyed ``(task, variant, node_class)`` and observed
transfers keyed ``(datatype, tier)``, compares each against the cost
model the active :class:`~repro.core.table.ScheduleTable` was built from,
and — through a :class:`~repro.obs.drift.DriftDetector` — raises
:class:`~repro.obs.drift.DriftDetected` when the model has walked away
from reality.  :meth:`CostCalibrator.calibrated_costs` then yields
corrected cost functions (:class:`ScaledCost`) from which drifted table
entries can be re-built (see :mod:`repro.obs.recalibrate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, TYPE_CHECKING

from repro.core.replay import variant_duration
from repro.graph.cost import CostFn
from repro.graph.task import DataParallelSpec
from repro.graph.taskgraph import TaskGraph
from repro.obs.drift import DriftDetected, DriftDetector
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel, tier_name
from repro.sim.trace import ExecSpan, Mark, Record
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.runtime.result import ExecutionResult

__all__ = [
    "CostStats",
    "ScaledCost",
    "node_class_of",
    "tier_name",
    "graph_with_costs",
    "CalibrationRow",
    "CalibrationReport",
    "CostCalibrator",
]


class CostStats:
    """Online mean/variance of one empirical cost distribution (Welford)."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        if not self.count:
            return "CostStats(empty)"
        return (
            f"CostStats(n={self.count}, mean={self.mean:.4g}, "
            f"std={self.std:.4g}, range=[{self.min:.4g}, {self.max:.4g}])"
        )


class ScaledCost:
    """A nominal cost model corrected by a measured scale factor.

    Keeping the base model (rather than flattening to a constant)
    preserves its state dependence: a :class:`~repro.graph.cost.LinearCost`
    scaled by 2 stays linear in ``n_models``, which is what a uniformly
    slower node or a mis-measured constant factor actually looks like.
    """

    def __init__(self, base: CostFn, factor: float) -> None:
        if not math.isfinite(factor) or factor <= 0:
            raise ValueError(f"scale factor must be positive and finite, got {factor}")
        self.base = base
        self.factor = float(factor)

    def __call__(self, state: State) -> float:
        return self.base(state) * self.factor

    def __repr__(self) -> str:
        return f"ScaledCost({self.base!r} * {self.factor:g})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScaledCost)
            and self.base == other.base
            and self.factor == other.factor
        )

    def __hash__(self) -> int:
        return hash(("ScaledCost", self.base, self.factor))


def node_class_of(cluster: Optional[ClusterSpec], proc: int) -> str:
    """Node class of a processor: its node's relative speed band."""
    if cluster is None:
        return "nominal"
    try:
        speed = cluster.processors[proc].speed
    except IndexError:
        return "nominal"
    return "nominal" if speed == 1.0 else f"speed{speed:g}"


def graph_with_costs(
    graph: TaskGraph,
    costs: Mapping[str, CostFn],
    name: Optional[str] = None,
) -> TaskGraph:
    """Clone a graph with some task costs replaced (calibration output).

    Channels and untouched tasks are shared.  For a replaced task whose
    :class:`~repro.graph.task.DataParallelSpec` carries an explicit
    ``chunk_cost`` and the replacement is a :class:`ScaledCost`, the chunk
    cost is scaled by the same factor so data-parallel variants drift
    consistently with the serial one.
    """
    changes = {}
    for t in graph.tasks:
        new_cost = costs.get(t.name)
        if new_cost is None:
            continue
        dp = t.data_parallel
        if dp is not None and dp.chunk_cost is not None and isinstance(new_cost, ScaledCost):
            old_chunk, factor = dp.chunk_cost, new_cost.factor
            dp = DataParallelSpec(
                dp.worker_counts,
                chunk_cost=lambda s, n, _c=old_chunk, _f=factor: _c(s, n) * _f,
                split_cost=dp.split_cost,
                join_cost=dp.join_cost,
                per_chunk_overhead=dp.per_chunk_overhead,
                chunks_for=dp.chunks_for,
            )
        changes[t.name] = {"cost": new_cost, "data_parallel": dp}
    return graph.with_tasks(name or f"{graph.name}+calibrated", changes)


@dataclass(frozen=True)
class CalibrationRow:
    """One line of the calibration report."""

    kind: str          # "exec" or "comm"
    key: str           # "T2/serial/nominal" or "frame/intra_node"
    samples: int
    modeled: Optional[float]
    observed: float
    std: float

    @property
    def rel_error(self) -> Optional[float]:
        if self.modeled is None or self.modeled == 0:
            return None
        return (self.observed - self.modeled) / self.modeled


@dataclass
class CalibrationReport:
    """Empirical-vs-modeled summary plus the drift signals raised so far."""

    rows: list[CalibrationRow]
    drifts: list[DriftDetected] = field(default_factory=list)

    def render(self) -> str:
        from repro.experiments.report import format_table

        def fmt(v: Optional[float]) -> str:
            return "-" if v is None else f"{v:.4g}"

        table_rows = []
        for r in self.rows:
            err = r.rel_error
            table_rows.append(
                [
                    r.kind,
                    r.key,
                    str(r.samples),
                    fmt(r.modeled),
                    f"{r.observed:.4g}",
                    f"{r.std:.2g}",
                    "-" if err is None else f"{err:+.1%}",
                ]
            )
        out = format_table(
            ["kind", "key", "n", "modeled", "observed", "std", "error"],
            table_rows,
            title="Cost calibration",
        )
        if self.drifts:
            out += "\nDrift signals:\n"
            out += "\n".join(f"  {d.summary()}" for d in self.drifts)
        else:
            out += "\nNo drift detected."
        return out


class CostCalibrator:
    """Aggregate observed costs and detect drift against the model.

    Parameters
    ----------
    graph / state:
        The *nominal* application — the cost model the active schedule
        table was built from.  Observations are compared against it.
    cluster:
        Used to classify processors into node classes and transfers into
        tiers; optional (everything lands in class "nominal" without it).
    comm:
        The modeled :class:`~repro.sim.network.CommModel`; optional (comm
        observations are then aggregated but not drift-checked).
    detector:
        Drift-detection policy; defaults to a conservative
        :class:`~repro.obs.drift.DriftDetector`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: Optional[ClusterSpec] = None,
        comm: Optional[CommModel] = None,
        detector: Optional[DriftDetector] = None,
    ) -> None:
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.comm = comm
        self.detector = detector or DriftDetector()
        self.exec_stats: dict[tuple[str, str, str], CostStats] = {}
        self.comm_stats: dict[tuple[str, str], CostStats] = {}
        self.drifts: list[DriftDetected] = []
        self._modeled_exec: dict[tuple[str, str], float] = {}
        #: (task, timestamp, start, end) of the last execution observed
        self._last_exec: Optional[tuple] = None

    # -- modeled costs --------------------------------------------------------

    def modeled_exec(self, task: str, variant: str) -> float:
        """The model's duration for a (task, variant) in the nominal state."""
        key = (task, variant)
        if key not in self._modeled_exec:
            self._modeled_exec[key] = variant_duration(self.graph, task, variant, self.state)
        return self._modeled_exec[key]

    def modeled_comm(self, tier: str, nbytes: int) -> Optional[float]:
        """The model's transfer time on a tier (None without a comm model)."""
        if self.comm is None:
            return None
        cost = getattr(self.comm, tier, None)
        if cost is None:
            return None
        return cost.time(nbytes)

    # -- observation ----------------------------------------------------------

    def observe_exec(
        self,
        task: str,
        variant: str,
        duration: float,
        node_class: str = "nominal",
        time: float = 0.0,
    ) -> Optional[DriftDetected]:
        """Feed one observed task execution; returns a drift signal if confirmed."""
        key = (task, variant, node_class)
        stats = self.exec_stats.get(key)
        if stats is None:
            stats = self.exec_stats[key] = CostStats()
        stats.add(duration)
        modeled = self.modeled_exec(task, variant)
        if modeled <= 0:
            return None  # zero-cost plumbing tasks cannot meaningfully drift
        signal = self.detector.observe(
            ("exec", task, variant, node_class), modeled, duration, time
        )
        if signal is not None:
            self.drifts.append(signal)
        return signal

    def observe_comm(
        self,
        datatype: str,
        tier: str,
        seconds: float,
        nbytes: int = 0,
        time: float = 0.0,
    ) -> Optional[DriftDetected]:
        """Feed one observed transfer; returns a drift signal if confirmed."""
        key = (datatype, tier)
        stats = self.comm_stats.get(key)
        if stats is None:
            stats = self.comm_stats[key] = CostStats()
        stats.add(seconds)
        modeled = self.modeled_comm(tier, nbytes)
        if modeled is None or modeled <= 0:
            return None
        signal = self.detector.observe(("comm", datatype, tier), modeled, seconds, time)
        if signal is not None:
            self.drifts.append(signal)
        return signal

    def on_record(self, record: Record) -> Optional[DriftDetected]:
        """One trace record, as :meth:`Observability.on_record
        <repro.obs.Observability.on_record>` hands it on; returns a drift
        signal if it confirmed one.

        An :class:`~repro.sim.trace.ExecSpan` is one execution observation:
        the identical per-processor copies a data-parallel placement writes
        back to back count once; pre-empted spans and tasks outside the
        graph are skipped; the cost is the span's ``cost`` when set, else
        its duration, filed under its ``node_class`` when set, else its
        processor's.  A transfer :class:`~repro.sim.trace.Mark` is one
        communication observation.  Other records are ignored.
        """
        kind = type(record)
        if kind is ExecSpan:
            key = (record.task, record.timestamp, record.start, record.end)
            if key == self._last_exec:
                return None
            self._last_exec = key
            if record.preempted or record.task not in self.graph:
                return None
            return self.observe_exec(
                record.task,
                record.variant,
                record.end - record.start if record.cost is None else record.cost,
                node_class=record.node_class or node_class_of(self.cluster, record.proc),
                time=record.end,
            )
        if kind is Mark and record.cat == "comm":
            args = record.args
            return self.observe_comm(
                args["channel"], args["tier"], record.end - record.start,
                nbytes=args["bytes"], time=record.end,
            )
        return None

    def observe_result(self, result: "ExecutionResult") -> list[DriftDetected]:
        """Ingest a finished run: replay its trace's spans and transfer
        marks through :meth:`on_record`, the rule a listening run applies
        as it goes.  Returns the drift signals this run confirmed."""
        before = len(self.drifts)
        for record in (*result.trace.spans, *result.trace.marks):
            self.on_record(record)
        return self.drifts[before:]

    # -- calibration output ---------------------------------------------------

    def scale_factors(self) -> dict[str, float]:
        """Per-task observed/modeled ratios (sample-weighted across keys)."""
        weighted: dict[str, float] = {}
        weights: dict[str, int] = {}
        for (task, variant, _nc), stats in self.exec_stats.items():
            modeled = self.modeled_exec(task, variant)
            if modeled <= 0 or not stats.count:
                continue
            weighted[task] = weighted.get(task, 0.0) + stats.count * (stats.mean / modeled)
            weights[task] = weights.get(task, 0) + stats.count
        return {task: weighted[task] / weights[task] for task in weighted}

    def calibrated_costs(self, min_rel_change: float = 0.05) -> dict[str, CostFn]:
        """Corrected cost functions for tasks whose factor moved materially."""
        out: dict[str, CostFn] = {}
        for task, factor in self.scale_factors().items():
            if abs(factor - 1.0) >= min_rel_change:
                out[task] = ScaledCost(self.graph.task(task).cost, factor)
        return out

    def calibrated_graph(self, min_rel_change: float = 0.05) -> TaskGraph:
        """The nominal graph with calibrated costs swapped in."""
        return graph_with_costs(self.graph, self.calibrated_costs(min_rel_change))

    def report(self) -> CalibrationReport:
        """Build the empirical-vs-modeled comparison table."""
        rows: list[CalibrationRow] = []
        for (task, variant, nc), stats in sorted(self.exec_stats.items()):
            rows.append(
                CalibrationRow(
                    kind="exec",
                    key=f"{task}/{variant}/{nc}",
                    samples=stats.count,
                    modeled=self.modeled_exec(task, variant) or None,
                    observed=stats.mean,
                    std=stats.std,
                )
            )
        for (datatype, tier), stats in sorted(self.comm_stats.items()):
            rows.append(
                CalibrationRow(
                    kind="comm",
                    key=f"{datatype}/{tier}",
                    samples=stats.count,
                    modeled=None,  # modeled comm needs nbytes; report observed only
                    observed=stats.mean,
                    std=stats.std,
                )
            )
        return CalibrationReport(rows=rows, drifts=list(self.drifts))

    def __repr__(self) -> str:
        return (
            f"CostCalibrator({len(self.exec_stats)} exec keys, "
            f"{len(self.comm_stats)} comm keys, {len(self.drifts)} drifts)"
        )
