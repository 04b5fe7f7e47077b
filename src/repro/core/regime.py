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

An observation is resolved by look-up, not by building a state: a value
equal to the current one is no change, and every other value of the state
space resolves through a map from value to confirmed state, one map per
state of the space, built once with the detector (|S| x |values| entries,
read off the members grouped by their other variables: a state is built
only for a combination the space lacks).
Only a value outside the map — or any value, on a detector with no space —
is clamped the long way, uncached.
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
        # state -> {value: confirmed state}, the state's own value left out
        self._maps: dict[State, dict[Any, State]] = {}
        if space is not None:
            # The members indexed by their other variables' values: a state
            # with ``variable`` set to v is the member filed beside it under
            # v, or — in a sparse space — off the space, where clamping
            # keeps it (v is a value of the space, so it is its own
            # nearest).
            by_rest: dict[tuple, dict[Any, State]] = {}
            for s in space:
                if variable in s:
                    rest = tuple(item for item in s.items() if item[0] != variable)
                    by_rest.setdefault(rest, {})[s[variable]] = s
            values = {v for group in by_rest.values() for v in group}
            for group in by_rest.values():
                for own, s in group.items():
                    self._maps[s] = row = {}
                    for v in values:
                        if v != own:
                            member = group.get(v)
                            row[v] = (
                                member if member is not None
                                else s.replace(**{variable: v})
                            )
        self._enter(self._clamp(initial))
        self._pending_value: Optional[Any] = None
        self._pending_count = 0
        self._since_change = 0
        self.changes: list[RegimeChange] = []

    def _enter(self, state: State) -> None:
        """Confirm ``state``: it and its value map become the current ones."""
        self.current = state
        self._value = state[self.variable]
        self._resolve = self._maps.get(state, {})

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
        candidate = self._resolve.get(value)
        cand_value = value
        if candidate is None:
            if value != self._value:  # off the map: clamped the long way, uncached
                candidate = self._clamp(self.current.replace(**{self.variable: value}))
                cand_value = candidate[self.variable]
            if candidate is None or candidate == self.current:
                self._pending_value = None
                self._pending_count = 0
                return None
        if cand_value == self._pending_value:
            self._pending_count += 1
        else:
            self._pending_value = cand_value
            self._pending_count = 1
        if self._pending_count < self.confirm:
            return None
        change = RegimeChange(time, self.current, candidate, self._since_change)
        # ``_enter(candidate)`` without its two calls: the value is known
        self.current, self._value = candidate, cand_value
        self._resolve = self._maps.get(candidate, {})
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
        self._enter(change.old)
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
