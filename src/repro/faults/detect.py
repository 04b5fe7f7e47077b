"""Failure detection: heartbeats, timeouts, detection latency.

The paper's constrained dynamism requires that "state changes are
detectable".  For application states the kiosk uses vision; for cluster
states the standard mechanism is the heartbeat: every processor beats
every ``heartbeat_interval`` seconds while alive, and a monitor declares a
processor failed once its last beat is older than ``timeout`` (each
heartbeat and the monitor is a plain call on the simulator's heap that
re-arms itself an interval on).  Detection latency is therefore
*configurable and bounded*:

    crash_time + timeout  <=  detection  <  crash_time + timeout + interval

(the monitor checks on the heartbeat grid).  The failover controller
subscribes to confirmed detections; the gap between crash and detection is
exactly the window in which in-flight frames are silently lost — the
fault experiments sweep it.

Slowdowns are detected regime-style: each beat carries the node's observed
speed, and a sustained deviation is confirmed after ``confirm`` beats —
the same debouncing idea as :class:`repro.core.regime.RegimeDetector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import FaultError
from repro.faults.view import ClusterView
from repro.sim.engine import Simulator

__all__ = ["Detection", "FailureDetector"]

# Beat times accumulate float error along the heartbeat grid; comparisons
# against the timeout tolerate it so detection lands on a deterministic
# grid point instead of flipping one step early.
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class Detection:
    """One confirmed cluster-state change, as seen by the monitor.

    Attributes
    ----------
    time:
        Simulated time of confirmation.
    kind:
        ``"node-failure" | "proc-failure" | "node-recovery" | "slowdown"``.
    node:
        The affected node.
    proc:
        The affected physical processor (``proc-failure`` only, else None).
    """

    time: float
    kind: str
    node: int
    proc: Optional[int] = None


class FailureDetector:
    """Heartbeat monitor over a :class:`~repro.faults.view.ClusterView`.

    Parameters
    ----------
    sim / view:
        The simulation and the fault state being observed.
    heartbeat_interval:
        Seconds between beats (also the monitor's check grid).
    timeout:
        A processor whose last beat is older than this is declared dead.
        Must be >= the interval, or healthy processors flap.
    confirm_slowdown:
        Consecutive deviating speed observations needed to confirm a
        slowdown regime (0 disables slowdown detection).
    """

    def __init__(
        self,
        sim: Simulator,
        view: ClusterView,
        heartbeat_interval: float = 0.1,
        timeout: float = 0.3,
        confirm_slowdown: int = 2,
    ) -> None:
        if heartbeat_interval <= 0:
            raise FaultError(f"heartbeat interval must be positive, got {heartbeat_interval}")
        if timeout < heartbeat_interval:
            raise FaultError(
                f"timeout {timeout} shorter than heartbeat interval "
                f"{heartbeat_interval}: healthy processors would flap"
            )
        self.sim = sim
        self.view = view
        self.heartbeat_interval = float(heartbeat_interval)
        self.timeout = float(timeout)
        self.confirm_slowdown = int(confirm_slowdown)
        self.detections: list[Detection] = []
        self._subscribers: list[Callable[[Detection], None]] = []
        self._last_beat: dict[int, float] = {}
        self._declared_dead: set[int] = set()
        self._node_speed_seen: dict[int, float] = {}
        self._node_speed_pending: dict[int, tuple[float, int]] = {}
        self._node_obs_time: dict[int, float] = {}
        self._started = False

    def subscribe(self, fn: Callable[[Detection], None]) -> None:
        """Run ``fn(detection)`` at the simulated instant of confirmation."""
        self._subscribers.append(fn)

    def start(self) -> None:
        """Arm one heartbeat per processor and the monitor, one heap entry
        from now (before ``sim.run``)."""
        if self._started:
            return
        self._started = True
        sim = self.sim
        for p in self.view.base.processors:
            self._last_beat[p.index] = sim.now
            self._node_speed_seen.setdefault(p.node, self.view.base.node_speeds[p.node])
            sim.call_at(sim.now, self._heartbeat, p.index, p.node)
        sim.call_at(sim.now, self._arm_monitor)

    # -- detection log helpers ------------------------------------------------

    def detections_of(self, kind: str) -> list[Detection]:
        """All confirmed detections of one kind, in time order."""
        return [d for d in self.detections if d.kind == kind]

    def detection_latencies(self, crash_times: list[tuple[float, int]]) -> list[float]:
        """Per-crash latency: first matching detection minus crash time."""
        out: list[float] = []
        for t_crash, node in crash_times:
            for d in self.detections:
                if d.kind == "node-failure" and d.node == node and d.time >= t_crash:
                    out.append(d.time - t_crash)
                    break
        return out

    # -- calls on the heap, each re-arming itself --------------------------------

    def _heartbeat(self, proc: int, node: int) -> None:
        """Beat while alive, fall silent while dead; again an interval on."""
        if self.view.alive(proc):
            self._last_beat[proc] = self.sim.now
            self._observe_speed(node, self.view.speed(proc))
        self.sim.call_at(self.sim.now + self.heartbeat_interval, self._heartbeat, proc, node)

    def _observe_speed(self, node: int, speed: float) -> None:
        if self.confirm_slowdown < 1:
            return
        # One observation per node per beat instant: a multi-processor
        # node's simultaneous beats must not multiply the debounce count.
        if self._node_obs_time.get(node) == self.sim.now:
            return
        self._node_obs_time[node] = self.sim.now
        seen = self._node_speed_seen[node]
        if speed == seen:
            self._node_speed_pending.pop(node, None)
            return
        pending_speed, count = self._node_speed_pending.get(node, (None, 0))
        count = count + 1 if pending_speed == speed else 1
        if count >= self.confirm_slowdown:
            self._node_speed_seen[node] = speed
            self._node_speed_pending.pop(node, None)
            self._emit(Detection(self.sim.now, "slowdown", node))
        else:
            self._node_speed_pending[node] = (speed, count)

    def _arm_monitor(self) -> None:
        self.sim.call_at(self.sim.now + self.heartbeat_interval, self._monitor)

    def _monitor(self) -> None:
        """Check every processor's last beat, then again an interval on."""
        base = self.view.base
        now = self.sim.now
        newly_dead: list[int] = []
        for p in base.processors:
            i = p.index
            if i in self._declared_dead:
                # A beat after declared death = the processor came back.
                if now - self._last_beat[i] <= self.timeout + _GRID_EPS:
                    self._declared_dead.discard(i)
                    if all(
                        q.index not in self._declared_dead
                        for q in base.node_processors(p.node)
                    ):
                        self._emit(Detection(now, "node-recovery", p.node))
            elif now - self._last_beat[i] > self.timeout + _GRID_EPS:
                self._declared_dead.add(i)
                newly_dead.append(i)
        # Aggregate: a whole node silent = node failure; else per-proc.
        nodes_reported: set[int] = set()
        for i in newly_dead:
            node = base.node_of(i)
            if node in nodes_reported:
                continue
            node_procs = {q.index for q in base.node_processors(node)}
            if node_procs <= self._declared_dead:
                nodes_reported.add(node)
                self._emit(Detection(now, "node-failure", node))
            else:
                self._emit(Detection(now, "proc-failure", node, proc=i))
        self._arm_monitor()

    def _emit(self, det: Detection) -> None:
        self.detections.append(det)
        for fn in list(self._subscribers):
            fn(det)

    def __repr__(self) -> str:
        return (
            f"FailureDetector(interval={self.heartbeat_interval:g}, "
            f"timeout={self.timeout:g}, detections={len(self.detections)})"
        )
