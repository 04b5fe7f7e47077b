"""The dynamic executor: free-running task threads + an on-line scheduler.

This is the paper's baseline execution model (§3.2): every task is a
thread; a general on-line scheduler hands out processors in quanta with no
knowledge of the task graph.  All of the pathologies the paper describes
emerge rather than being scripted:

* upstream tasks over-produce while downstream tasks fall behind (channel
  backlogs grow);
* consumers skip to the newest common timestamp ("a downstream task may
  restrict its processing to only the most recent data"), producing
  non-uniform frame coverage;
* threads are preempted mid-item (visible as ``preempted`` spans).

Input policies:

* ``"latest"`` — consume the newest timestamp available on *all* streaming
  inputs (frame-skipping, the Smart Kiosk behaviour);
* ``"inorder"`` — consume every timestamp sequentially (no skipping;
  backlog then shows up purely as latency).

A thread is a small state machine on the simulator's heap, not a
coroutine.  A grant is a callback on the scheduler's ``acquire`` event; a
quantum is one :meth:`~repro.sim.engine.Simulator.call_at`; a consumer's
wait for whichever of its streaming inputs changes first is a token the
first change takes and the others find gone.  Every continuation that follows
an event runs one heap entry after it; the same-instant order that gives
is pinned bit for bit by ``tests/runtime/test_dynamic_golden.py``.  A
thread's outputs go through the one emit body,
:meth:`~repro.runtime.hub.SimWorld.try_emit`, and a full channel is
retried at its next change.

The baseline takes no fault plan.  Failures are the schedule-driven
path's (§3.4: :class:`~repro.faults.runner.FaultTolerantExecutor`, a
failure as a regime change over a table of per-shape schedules).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.sched.online import PthreadScheduler
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator
from repro.sim.trace import TraceRecorder
from repro.state import State
from repro.stm.channel import STMChannel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability

__all__ = ["DynamicExecutor"]


class DynamicExecutor:
    """Execute a task graph dynamically under an on-line scheduler.

    Parameters
    ----------
    graph / state / cluster:
        What to run, in which application state, on which cluster.
    scheduler:
        A :class:`~repro.sched.online.PthreadScheduler` (the pthread
        model) or a :class:`~repro.sched.priority.TimestampPriorityScheduler`.
    input_policy:
        ``"latest"`` (frame-skipping) or ``"inorder"``.
    capacity_override:
        Per-channel capacity overrides (flow-control ablation).
    obs:
        Optional :class:`~repro.obs.Observability` bundle, subscribed to
        the run's trace.  Every quantum is a span (with its ``preempted``
        flag), but a quantum is a slice of a cost, not a cost: the last
        quantum of a (task, timestamp) carries the *aggregated* busy time
        as its ``cost``, and that is what the calibrator observes.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        scheduler: PthreadScheduler,
        input_policy: str = "latest",
        capacity_override: Optional[dict[str, Optional[int]]] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        if input_policy not in ("latest", "inorder"):
            raise ExecutorConfigError(f"unknown input policy {input_policy!r}")
        graph.validate()
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.scheduler = scheduler
        self.input_policy = input_policy
        self.capacity_override = capacity_override
        self.obs = obs
        self._speed = {p.index: p.speed for p in cluster.processors}

    def run(
        self,
        horizon: float,
        max_timestamps: Optional[int] = None,
    ) -> ExecutionResult:
        """Simulate up to ``horizon`` seconds (and/or ``max_timestamps`` frames)."""
        if horizon <= 0:
            raise ExecutorConfigError(f"horizon must be positive, got {horizon}")
        sim = Simulator()
        trace = TraceRecorder()
        scheduler = self.scheduler
        world = SimWorld(
            self.graph, self.state, self.cluster, sim, trace,
            build_hubs(sim, self.graph, trace, self.capacity_override),
            build_task_plans(self.graph), self.obs,
        )
        scheduler.bind(sim, self.cluster)
        call_at, quantum = sim.call_at, scheduler.quantum
        emitted = 0

        def thread(task: Task) -> Callable[[], None]:
            """``task``'s thread as a state machine on the heap; returns the
            head of its loop.  A source sleeps to its next period boundary,
            a consumer picks a timestamp (or waits for any streaming input
            to change); either then executes the frame in quanta and emits
            it."""
            name = task.name
            cost = task.cost(self.state)
            source = name in sources
            ts, last = 0, -1
            remaining = busy = slice_time = speed = start = 0.0
            proc = token = None
            if source:
                if task.period is None and cost <= 0:
                    raise ReproError(
                        f"source {name!r} has no period and zero cost; "
                        "it would flood the simulation at a single instant"
                    )
            else:
                statics = world.plans[name].static_inputs
                inputs = [
                    (world.hubs[ch], conn, ch in statics)
                    for ch, conn in world.conns_in[name].items()
                ]
                streams = [hub for hub, _conn, _lag in world.stream_in[name]]
                chans = [hub.stm for hub in streams]

            def next_frame() -> None:
                # A source's loop head: digitize frame ``ts`` at ts * period.
                if max_timestamps is not None and ts >= max_timestamps:
                    return
                if task.period is not None:
                    target = ts * task.period
                    if sim.now < target:
                        # ``now + (target - now)``, not ``target``: the
                        # pinned runs were recorded with that rounding
                        return call_at(sim.now + (target - sim.now), execute)
                execute()

            def next_pick() -> None:
                # A consumer's loop head: the next timestamp the input policy
                # allows, its inputs retrieved (streaming at ts, static at
                # their only item); or a wait for any streaming input to
                # change, which the first change wins.
                nonlocal ts, last, token
                while True:
                    ts = self._pick_timestamp(chans, last)
                    if ts is None:
                        token = mine = object()
                        for hub in streams:
                            hub.wait_change().add_callback(
                                lambda _changed: raced(mine, next_pick)
                            )
                        return
                    for hub, conn, static in inputs:
                        if static:
                            hub.try_get(conn, hub.stm.newest_timestamp() or 0)
                        elif hub.try_get(conn, ts) is None:
                            # defensive: item vanished between pick and get;
                            # skipping the frame guarantees loop progress
                            last = ts
                            break
                    else:
                        return execute()

            def execute() -> None:
                # Run ``cost`` seconds of work in scheduler quanta.
                nonlocal remaining, busy
                remaining, busy = cost, 0.0
                acquire()

            def acquire() -> None:
                scheduler.acquire(name, priority=float(ts)).add_callback(granted)

            def granted(grant: SimEvent) -> None:
                nonlocal proc, speed, slice_time, start
                proc = grant.value
                speed = self._speed[proc]
                slice_time = min(quantum, remaining / speed)
                start = sim.now
                if slice_time <= 0:
                    sliced()
                else:
                    call_at(sim.now + slice_time, sliced)

            def raced(mine: object, then: Callable[[], None]) -> None:
                nonlocal token
                if token is mine:
                    token = None
                    call_at(sim.now, then)

            def sliced() -> None:
                nonlocal remaining, busy
                remaining -= slice_time * speed
                busy += slice_time
                done = remaining <= 1e-12
                world.record_exec(
                    name, ts, (proc,), start, sim.now, preempted=not done,
                    cost=busy if done else None,
                    node_class="nominal" if done else None,
                )
                if not done:
                    scheduler.preemptions += 1
                scheduler.release(name, proc)
                if done:
                    emit()
                else:
                    acquire()

            def emit(first: int = 0) -> None:
                # The outputs into STM; a full channel is retried at its
                # next change.  Then the inputs are consumed and the loop
                # goes round.
                nonlocal ts, last, emitted
                full = world.try_emit(name, ts, first)
                if full is not None:
                    at, hub = full
                    hub.wait_change().add_callback(lambda _changed: emit(at))
                    return
                world.retire(name, ts, sim.now)
                if source:
                    emitted = ts = ts + 1
                    next_frame()
                else:
                    last = ts
                    next_pick()

            return next_frame if source else next_pick

        sources = set(self.graph.source_tasks())
        for head in [thread(t) for t in self.graph.tasks]:
            call_at(0.0, head)

        sim.run(until=horizon)

        return world.result(
            horizon,
            emitted,
            {"scheduler": repr(scheduler), "policy": self.input_policy},
        )

    def _pick_timestamp(self, chans: list[STMChannel], last: int) -> Optional[int]:
        """The next timestamp to process from streaming channels ``chans``
        under the input policy, or None if none is ready."""
        newests = [c.newest_timestamp() for c in chans]
        if any(n is None for n in newests):
            return None
        bound = min(newests)
        if self.input_policy == "inorder":
            nxt = last + 1
            if nxt <= bound and all(c.holds(nxt) for c in chans):
                return nxt
            return None
        for ts in reversed(chans[0].timestamps()):
            if ts <= last:
                break
            if ts > bound:
                continue
            if all(c.holds(ts) for c in chans[1:]):
                return ts
        return None
