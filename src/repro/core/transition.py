"""Schedule-transition policies.

On a state change the runtime must "perform a transition to the new
schedule" (§3.4).  The paper argues the cost is amortized because changes
are infrequent; the transition policies here make that cost explicit so the
regime experiments and the switch-frequency ablation can measure exactly
when the amortization argument holds.

Two policies:

* :class:`DrainTransition` — let every in-flight iteration finish under the
  old schedule, then start the new one.  Overhead is (roughly) the old
  schedule's latency plus a fixed reconfiguration cost; no work is lost.
* :class:`ImmediateTransition` — abandon in-flight iterations and start the
  new schedule at once.  Overhead is only the reconfiguration cost, but the
  iterations in flight (latency/period of them) are discarded — the
  lost-work accounting feeds the uniformity metric.
* :class:`CheckpointTransition` — abandon in-flight iterations like
  :class:`ImmediateTransition`, but *replay* their timestamps under the new
  schedule: the inputs still live in STM (items are only collected once
  every consumer consumed them), so the work is re-issued rather than lost.
  Overhead is the setup cost plus one new-schedule initiation interval per
  replayed iteration; no frames are dropped.  This is the policy the
  fault-tolerance subsystem (:mod:`repro.faults`) uses to survive a node
  crash without losing frames.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from repro.core.schedule import ScheduleSolution

__all__ = [
    "TransitionEffect",
    "TransitionPolicy",
    "DrainTransition",
    "ImmediateTransition",
    "CheckpointTransition",
]


@dataclass(frozen=True)
class TransitionEffect:
    """What one schedule switch costs.

    Attributes
    ----------
    stall:
        Seconds during which no *new* iteration may start.
    lost_iterations:
        In-flight iterations abandoned (0 for draining transitions).
    replayed_iterations:
        In-flight iterations re-issued under the new schedule instead of
        dropped (checkpoint transitions); their cost is folded into
        ``stall``, not into ``lost_iterations``.
    """

    stall: float
    lost_iterations: int
    replayed_iterations: int = 0

    def __post_init__(self) -> None:
        if self.stall < 0 or self.lost_iterations < 0 or self.replayed_iterations < 0:
            raise ValueError(f"invalid transition effect {self}")


class TransitionPolicy(abc.ABC):
    """Strategy deciding the cost of switching between two solutions."""

    @abc.abstractmethod
    def effect(self, old: ScheduleSolution, new: ScheduleSolution) -> TransitionEffect:
        """Cost of switching from ``old``'s schedule to ``new``'s."""

    @staticmethod
    def in_flight(solution: ScheduleSolution) -> int:
        """Iterations simultaneously in flight under a pipelined schedule.

        Degenerate schedules carry no in-flight work: a period of zero (or
        less) means the schedule is not pipelined at all, and a latency of
        zero (an empty iteration — e.g. a graph with no tasks) means there
        is nothing *to* be in flight, so both report 0 rather than the
        pipeline-depth lower bound of 1.
        """
        if solution.period <= 0 or solution.latency <= 0:
            return 0
        return max(1, math.ceil(solution.latency / solution.period))


class DrainTransition(TransitionPolicy):
    """Finish in-flight work under the old schedule, then switch.

    Parameters
    ----------
    setup:
        Fixed reconfiguration cost after draining (thread re-pinning,
        dependence rewiring), in seconds.
    """

    def __init__(self, setup: float = 0.0) -> None:
        if setup < 0:
            raise ValueError(f"setup must be >= 0, got {setup}")
        self.setup = float(setup)

    def effect(self, old: ScheduleSolution, new: ScheduleSolution) -> TransitionEffect:
        return TransitionEffect(stall=old.latency + self.setup, lost_iterations=0)

    def __repr__(self) -> str:
        return f"DrainTransition(setup={self.setup:g})"


class ImmediateTransition(TransitionPolicy):
    """Abandon in-flight iterations; switch after only the setup cost."""

    def __init__(self, setup: float = 0.0) -> None:
        if setup < 0:
            raise ValueError(f"setup must be >= 0, got {setup}")
        self.setup = float(setup)

    def effect(self, old: ScheduleSolution, new: ScheduleSolution) -> TransitionEffect:
        return TransitionEffect(
            stall=self.setup,
            lost_iterations=self.in_flight(old),
        )

    def __repr__(self) -> str:
        return f"ImmediateTransition(setup={self.setup:g})"


class CheckpointTransition(TransitionPolicy):
    """Re-issue abandoned in-flight iterations under the new schedule.

    The STM substrate is the checkpoint: an iteration's input items remain
    live until every consumer consumed them, so an iteration abandoned
    mid-flight can be replayed from its source items.  The switch stalls
    for the setup cost plus the time the new schedule needs to re-admit
    the replayed iterations (one initiation interval each); nothing is
    lost.

    Parameters
    ----------
    setup:
        Fixed reconfiguration cost, in seconds.
    """

    def __init__(self, setup: float = 0.0) -> None:
        if setup < 0:
            raise ValueError(f"setup must be >= 0, got {setup}")
        self.setup = float(setup)

    def effect(self, old: ScheduleSolution, new: ScheduleSolution) -> TransitionEffect:
        replayed = self.in_flight(old)
        return TransitionEffect(
            stall=self.setup + replayed * max(new.period, 0.0),
            lost_iterations=0,
            replayed_iterations=replayed,
        )

    def __repr__(self) -> str:
        return f"CheckpointTransition(setup={self.setup:g})"
