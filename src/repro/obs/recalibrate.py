"""Closing the loop: drift → warm table re-build → schedule switch.

§3.4 prescribes the on-line reaction to a regime change: "perform a table
look-up to determine the new schedule for the new state; perform a
transition to the new schedule".  Cost-model drift is a regime change in
the *cost* dimension rather than the state dimension, so the look-up step
becomes a re-build: the :class:`CalibrationController` re-runs the
off-line optimizer over the state space with the calibrator's corrected
costs — through the warm :meth:`~repro.core.table.ScheduleTable.build`
path (:class:`~repro.core.cache.ScheduleCache` reuse for any state
whose solve request is unchanged) — and looks the current state up in
the re-built table.  The transition itself is the
base :class:`~repro.core.table.RegimeController`'s: one ``switch`` under a
standard :class:`~repro.core.transition.TransitionPolicy`, recorded and
accounted exactly like a state switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.optimal import OptimalScheduler
from repro.core.table import RegimeController, ScheduleTable, SwitchRecord
from repro.core.transition import DrainTransition, TransitionPolicy
from repro.obs.calibrate import CostCalibrator
from repro.obs.drift import DriftDetected
from repro.state import StateSpace

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.runtime.result import ExecutionResult

__all__ = ["Recalibration", "CalibrationController"]


@dataclass(frozen=True)
class Recalibration:
    """The cause of a calibration switch: drift signals and applied factors."""

    drifts: tuple[DriftDetected, ...]
    scale_factors: dict

    def __str__(self) -> str:
        factors = ", ".join(
            f"{t}x{f:.2f}" for t, f in sorted(self.scale_factors.items())
        )
        return f"recalibrated ({factors})"


@dataclass(repr=False)
class CalibrationController(RegimeController):
    """Watch execution results; on confirmed drift, re-build and switch.

    Parameters
    ----------
    table:
        The active (stale-cost) schedule table.
    space / scheduler:
        Inputs for re-running the off-line build with corrected costs.
    calibrator:
        The :class:`~repro.obs.calibrate.CostCalibrator` holding the
        nominal cost model and accumulating observations.
    policy:
        Transition policy for the switch (default: drain).
    cache:
        Forwarded to :meth:`ScheduleTable.build` — the warm path; the
        re-build makes the scheduler's exact requests.
    min_rel_change:
        Scale-factor dead band below which a task's cost is left alone.
    """

    table: ScheduleTable
    space: StateSpace
    scheduler: OptimalScheduler
    calibrator: CostCalibrator
    policy: TransitionPolicy = field(default_factory=DrainTransition)
    cache: object = None
    min_rel_change: float = 0.05

    def __post_init__(self) -> None:
        super().__init__(self.table.lookup(self.calibrator.state), self.policy)

    def process(self, result: "ExecutionResult", time: float = 0.0) -> Optional[SwitchRecord]:
        """Ingest a run's trace; recalibrate iff it confirms new drift."""
        new_drifts = self.calibrator.observe_result(result)
        if not new_drifts:
            return None
        return self.recalibrate(time, new_drifts)

    def recalibrate(
        self, time: float, drifts: tuple[DriftDetected, ...] | list[DriftDetected]
    ) -> SwitchRecord:
        """Re-build the table with calibrated costs and switch to it."""
        factors = {
            t: f
            for t, f in self.calibrator.scale_factors().items()
            if abs(f - 1.0) >= self.min_rel_change
        }
        calibrated = self.calibrator.calibrated_graph(self.min_rel_change)
        new_table = ScheduleTable.build(
            calibrated, self.space, self.scheduler, cache=self.cache
        )
        new = new_table.lookup(self.calibrator.state)
        self.table = new_table
        # Re-baseline the calibrator against the corrected model: future
        # observations are judged against the re-built costs, so the
        # detector's disarmed keys see their error collapse and re-arm
        # (hysteresis), keeping detection infrequent.
        self.calibrator.graph = calibrated
        self.calibrator._modeled_exec.clear()
        return self.switch(time, Recalibration(tuple(drifts), factors), new)
