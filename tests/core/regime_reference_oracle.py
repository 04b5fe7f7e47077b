"""The regime detector and the switch ``repro.core.regime`` / ``repro.core.table``
had before an observation became a look-up — kept verbatim as the oracle.

Every observation here builds, hashes and clamps a fresh ``State``
(``current.replace(variable=value)``), and every switch prices its move
through ``policy.effect`` again.  ``tests/core/test_switch_cost.py`` feeds
both the same observations and requires equal ``changes`` and ``records``.

Not a test module; do not edit the classes.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.regime import RegimeChange
from repro.core.table import SwitchRecord
from repro.errors import RegimeError, ReproError
from repro.state import State, StateSpace


class OracleDetector:
    """``RegimeDetector`` as it was: one fresh, clamped ``State`` an observation."""

    def __init__(
        self,
        variable: str,
        initial: State,
        confirm: int = 1,
        space: Optional[StateSpace] = None,
    ) -> None:
        if confirm < 1:
            raise RegimeError(f"confirm must be >= 1, got {confirm}")
        if variable not in initial:
            raise RegimeError(f"initial state {initial} lacks variable {variable!r}")
        self.variable = variable
        self.confirm = confirm
        self.space = space
        self.current = self._clamp(initial)
        self._pending_value: Optional[Any] = None
        self._pending_count = 0
        self._since_change = 0
        self.changes: list[RegimeChange] = []

    def _clamp(self, state: State) -> State:
        if self.space is None or state in self.space:
            return state
        values = sorted(s[self.variable] for s in self.space if self.variable in s)
        if not values:
            raise RegimeError(f"state space has no states with {self.variable!r}")
        x = state[self.variable]
        nearest = min(values, key=lambda v: (abs(v - x), v))
        return state.replace(**{self.variable: nearest})

    def observe(self, time: float, value: Any) -> Optional[RegimeChange]:
        """Feed one raw observation; returns a change iff one is confirmed."""
        self._since_change += 1
        candidate = self._clamp(self.current.replace(**{self.variable: value}))
        if candidate == self.current:
            self._pending_value = None
            self._pending_count = 0
            return None
        cand_value = candidate[self.variable]
        if cand_value == self._pending_value:
            self._pending_count += 1
        else:
            self._pending_value = cand_value
            self._pending_count = 1
        if self._pending_count < self.confirm:
            return None
        change = RegimeChange(
            time=time,
            old=self.current,
            new=candidate,
            observations=self._since_change,
        )
        self.current = candidate
        self._pending_value = None
        self._pending_count = 0
        self._since_change = 0
        self.changes.append(change)
        return change

    def retract(self, change: RegimeChange) -> None:
        if not self.changes or self.changes[-1] is not change:
            raise RegimeError(f"{change} is not the latest confirmed change")
        self.changes.pop()
        self.current = change.old
        self._since_change = change.observations


class OracleSwitcher:
    """``RegimeController.switch`` under ``RegimeSwitcher.observe`` as they
    were: the policy prices every switch."""

    def __init__(self, table, detector: OracleDetector, policy) -> None:
        if detector.current not in table:
            raise RegimeError(
                f"detector's initial state {detector.current} not in the table"
            )
        self.active = table.lookup(detector.current)
        self.policy = policy
        self.records: list[SwitchRecord] = []
        self.total_stall = 0.0
        self.total_lost_iterations = 0
        self.total_replayed_iterations = 0
        self.resume_at = 0.0
        self.table = table
        self.detector = detector

    def switch(self, time: float, cause: Any, new) -> SwitchRecord:
        old = self.active
        effect = self.policy.effect(old, new)
        self.active = new
        record = SwitchRecord(time, cause, effect, old, new)
        self.records.append(record)
        self.total_stall += effect.stall
        self.total_lost_iterations += effect.lost_iterations
        self.total_replayed_iterations += effect.replayed_iterations
        self.resume_at = max(self.resume_at, time + effect.stall)
        return record

    def observe(self, time: float, value) -> Optional[SwitchRecord]:
        change = self.detector.observe(time, value)
        if change is None:
            return None
        try:
            new = self.table.lookup(change.new)
        except ReproError:
            self.detector.retract(change)
            raise
        return self.switch(time, change, new)
