"""On-line regime detection.

Constrained dynamism requires that "state changes are detectable".  For
the kiosk this is vision-based person detection: the raw per-frame count is
noisy (a person briefly occluded should not flap the schedule), so the
detector *debounces*: a new value becomes the confirmed regime only after
it has been observed ``confirm`` consecutive times.

The detector is runtime-agnostic: feed it ``(time, observed_value)`` pairs
and it returns a :class:`RegimeChange` whenever the confirmed state
changes.  The experiments use it both with clean kiosk traces (``confirm=1``)
and with injected observation noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import RegimeError
from repro.state import State, StateSpace

__all__ = ["RegimeChange", "RegimeDetector"]


@dataclass(frozen=True)
class RegimeChange:
    """A confirmed transition between application states."""

    time: float
    old: State
    new: State
    observations: int  # raw observations seen since the previous change


class RegimeDetector:
    """Debounced mapping from raw observations to confirmed states.

    Parameters
    ----------
    variable:
        The state variable being observed (e.g. ``"n_models"``).
    initial:
        The starting confirmed state.
    confirm:
        Number of consecutive identical observations needed to confirm a
        change (>= 1).
    space:
        Optional :class:`~repro.state.StateSpace`; observations outside it
        are clamped to the nearest member value (the kiosk supports one to
        five people — a sixth face is tracked as five).
    """

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
        """Undo the latest confirmed ``change``: its consumer could not act on it.

        The detector goes back to ``change.old`` with nothing pending, so
        the rejected value has to be confirmed again before it is reported
        again — and ``changes`` lists only the changes that took effect.
        """
        if not self.changes or self.changes[-1] is not change:
            raise RegimeError(f"{change} is not the latest confirmed change")
        self.changes.pop()
        self.current = change.old
        self._since_change = change.observations

    @property
    def change_count(self) -> int:
        """Number of confirmed regime changes so far."""
        return len(self.changes)

    def __repr__(self) -> str:
        return (
            f"RegimeDetector({self.variable!r}, current={self.current}, "
            f"confirm={self.confirm}, changes={len(self.changes)})"
        )
