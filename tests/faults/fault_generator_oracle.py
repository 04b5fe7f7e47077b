"""The generator placement body ``FaultTolerantExecutor.run`` had before it
moved onto the shared callback replay, kept verbatim as the differential
oracle (``test_runner_diff.py``): one generator ``Process`` per placement
per frame over a ``_Frame`` of per-task ``done`` events and one ``abandon``
event, ``AnyOf`` races against the abandon and the processors' death
events, every STM access wrapped in the bounded-retry helpers — and no
processor acquisition, which is one of the two defects the differential
pins.  It runs on the same kernel, hub, STM, injector, detector and
controller as the executor under test, so what the comparison isolates is
the body.

The retry layer (``faults/retry.py``), the two exceptions it and the body
signalled with (``errors.FaultTimeout`` / ``errors.FrameLost``) and the
``put=`` form of ``SimWorld.emit`` went with the body; they live on here,
also verbatim, because the oracle needs them.  ``tests/faults/
test_retry.py`` keeps the helpers honest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import (
    ExecutorConfigError,
    FaultError,
    ItemConsumed,
    ShapeUnschedulable,
)
from repro.faults.detect import Detection, FailureDetector
from repro.faults.failover import FailoverController
from repro.faults.inject import FaultInjector
from repro.faults.runner import FaultTolerantExecutor
from repro.faults.view import ClusterView
from repro.metrics.recovery import recovery_stats
from repro.runtime.dispatch import FlatPlacement, FlatSchedule, build_task_plans
from repro.runtime.hub import ChannelHub, SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.sim.engine import SimEvent, Simulator
from repro.sim.trace import TraceRecorder
from repro.stm.channel import Timestamp
from repro.stm.connection import Connection

_EPS = 1e-9


# -- errors.py ----------------------------------------------------------------


class FaultTimeout(FaultError):
    """A retried STM operation exhausted its retry budget.

    Raised instead of deadlocking when a consumer waits for an item whose
    producer died mid-iteration.  Carries the channel and timestamp so the
    caller can skip the frame and move on.
    """

    def __init__(self, channel: str, timestamp, attempts: int, waited: float):
        self.channel = channel
        self.timestamp = timestamp
        self.attempts = attempts
        self.waited = waited
        super().__init__(
            f"gave up on channel {channel!r} ts={timestamp!r} after "
            f"{attempts} attempts ({waited:g}s simulated)"
        )


class FrameLost(FaultError):
    """A frame in flight was lost to a failure (carried by failed events)."""

    def __init__(self, timestamp: int, cause: str = "fault"):
        self.timestamp = timestamp
        self.cause = cause
        super().__init__(f"frame {timestamp} lost ({cause})")


# -- faults/retry.py ----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff budget for STM operations.

    Attributes
    ----------
    max_attempts:
        Attempts before giving up (>= 1).
    base_delay:
        First backoff sleep, in simulated seconds.
    factor:
        Multiplier between successive sleeps.
    max_delay:
        Backoff ceiling.
    """

    max_attempts: int = 6
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay <= 0 or self.factor < 1.0 or self.max_delay < self.base_delay:
            raise ValueError(f"invalid backoff schedule {self}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return min(self.base_delay * self.factor**attempt, self.max_delay)

    @property
    def budget(self) -> float:
        """Total simulated seconds the policy is willing to wait."""
        return sum(self.delay(i) for i in range(self.max_attempts))


def get_with_retry(
    hub: ChannelHub,
    conn: Connection,
    ts: Timestamp,
    policy: Optional[RetryPolicy] = None,
):
    """Get ``ts`` from ``hub``, retrying with backoff; raises FaultTimeout.

    Each miss waits for min(backoff, next channel change) — a producer that
    is merely slow wakes the consumer the moment the item lands, while a
    producer that died costs at most the policy's budget instead of
    forever.  Returns ``(timestamp, value)``.
    """
    policy = policy or RetryPolicy()
    sim = hub.sim
    start = sim.now
    for attempt in range(policy.max_attempts):
        got = hub.try_get(conn, ts)
        if got is not None:
            return got
        if attempt + 1 == policy.max_attempts:
            break
        yield sim.any_of([sim.timeout(policy.delay(attempt)), hub.wait_change()])
    raise FaultTimeout(hub.name, ts, policy.max_attempts, sim.now - start)


def put_with_retry(
    hub: ChannelHub,
    conn: Connection,
    ts: int,
    value: Any,
    size: int = 0,
    policy: Optional[RetryPolicy] = None,
):
    """Put into ``hub``, retrying while the channel is full; may FaultTimeout.

    Mirrors :meth:`ChannelHub.put` but bounds the capacity wait: a consumer
    that died leaves the channel full forever, and the producer must fail
    fast rather than deadlock the pipeline behind it.
    """
    policy = policy or RetryPolicy()
    sim = hub.sim
    start = sim.now
    for attempt in range(policy.max_attempts):
        if not hub.stm.is_full:
            yield from hub.put(conn, ts, value, size=size)
            return
        if attempt + 1 == policy.max_attempts:
            break
        yield sim.any_of([sim.timeout(policy.delay(attempt)), hub.wait_change()])
    raise FaultTimeout(hub.name, ts, policy.max_attempts, sim.now - start)


# -- runtime/hub.py: SimWorld.emit(task, ts, put) ------------------------------


def emit(world: SimWorld, task: str, ts: int, put):
    """Put ``task``'s outputs for frame ``ts`` through ``put(hub, conn, ts,
    value, size)``, draining terminal channels behind them."""
    for hub, conn, size, collector in world._outputs[task]:
        yield from put(hub, conn, ts, {"ts": ts}, size)
        if collector is not None:
            world._drain(hub, collector, ts)


# -- faults/runner.py ---------------------------------------------------------


class _Frame:
    """Book-keeping for one in-flight iteration (one stream timestamp)."""

    __slots__ = ("ts", "abandon", "done", "remaining", "lost", "cause", "launched_at")

    def __init__(self, sim: Simulator, ts: int, tasks: list[str]) -> None:
        self.ts = ts
        self.abandon: SimEvent = sim.event(("abandon:{}", ts))
        self.done: dict[str, SimEvent] = {
            t: sim.event(("done:{}:{}", ts, t)) for t in tasks
        }
        self.remaining = len(tasks)
        self.lost = False
        self.cause = ""
        self.launched_at = sim.now

    @property
    def abandoned(self) -> bool:
        return self.abandon.triggered

    def mark_lost(self, cause: str) -> None:
        if not self.lost:
            self.lost = True
            self.cause = cause
        if not self.abandon.triggered:
            self.abandon.succeed(cause)


class GeneratorFaultExecutor(FaultTolerantExecutor):
    """:class:`FaultTolerantExecutor` with the replaced ``run`` body (under
    the default :class:`RetryPolicy`, the only one any caller ever used)."""

    def run(self, iterations: int) -> ExecutionResult:
        """Execute ``iterations`` timestamps through crashes and failovers."""
        if iterations < 1:
            raise ExecutorConfigError(f"iterations must be >= 1, got {iterations}")
        obs = self.obs
        retry = RetryPolicy()
        sim = Simulator()
        trace = TraceRecorder()
        world = SimWorld(
            self.graph, self.state, self.cluster, sim, trace,
            build_hubs(sim, self.graph, trace, obs=obs),
            build_task_plans(self.graph), obs,
        )

        view = ClusterView(sim, self.cluster)
        injector = FaultInjector(sim, view, self.faults.plan)
        detector = FailureDetector(
            sim,
            view,
            heartbeat_interval=self.faults.heartbeat_interval,
            timeout=self.faults.detect_timeout,
        )
        controller = FailoverController(self.table, view, self.faults.policy)
        if obs is not None:
            obs.on_period(controller.active.period)

        replay_q: deque[int] = deque()
        frames: dict[int, _Frame] = {}
        outstanding = [0]
        crash_lost: list[int] = []
        transition_lost: list[int] = []
        replayed: list[int] = []
        unschedulable: list[Detection] = []

        # The transition policy's verdict on in-flight work is applied to
        # the frames *actually* in flight at the failover instant, not just
        # accounted analytically: immediate abandons them, checkpoint
        # re-queues their timestamps for replay.
        def on_detection(det: Detection) -> None:
            if obs is not None:
                obs.on_detection(det.time, det.kind, detail=f"node={det.node}")
            try:
                record = controller.on_detection(det)
            except ShapeUnschedulable:
                # Nothing pre-computed can run on what survives; keep the
                # current schedule and let crash losses tell the story.
                unschedulable.append(det)
                return
            if record is None:
                return
            if obs is not None:
                obs.on_failover(
                    record.time,
                    controller.resume_at,
                    detail=f"{det.kind}:{det.node}",
                )
                obs.on_period(controller.active.period)
            effect = record.effect
            if effect.lost_iterations > 0 or effect.replayed_iterations > 0:
                for frame in list(frames.values()):
                    if frame.remaining > 0 and not frame.lost:
                        if effect.replayed_iterations > 0:
                            replay_q.append(frame.ts)
                            replayed.append(frame.ts)
                            frame.mark_lost("replayed")
                        else:
                            transition_lost.append(frame.ts)
                            frame.mark_lost("transition")

        detector.subscribe(on_detection)

        def put(hub, conn, ts, value, size):
            if not hub.stm.holds(ts):  # replays reuse surviving items
                yield from put_with_retry(hub, conn, ts, value, size=size, policy=retry)

        def run_placement(frame: _Frame, pl: FlatPlacement, pred_primary: dict[str, int]):
            ts = frame.ts
            phys = pl.procs  # already translated to physical indices
            try:
                ready = pl.start
                for pred, nbytes, _channels in world.edges[pl.task]:
                    pend = yield frame.done[pred]  # raises FrameLost on cascade
                    delay = self.comm.transfer_time(nbytes, pred_primary[pred], phys[0])
                    ready = max(ready, pend + delay)
                if sim.now < ready - _EPS:
                    got = yield sim.any_of([sim.timeout(ready - sim.now), frame.abandon])
                    if got[0] != 0:
                        raise FrameLost(ts, frame.cause or "abandoned")
                if frame.abandoned:
                    raise FrameLost(ts, frame.cause or "abandoned")
                if any(not view.alive(p) for p in phys):
                    raise FrameLost(ts, "crash")
                # Fetch streaming inputs through the retrying STM wrapper —
                # a dead producer costs the backoff budget, not forever.
                for hub, conn in world.stream_in[pl.task]:
                    try:
                        yield from get_with_retry(hub, conn, ts, retry)
                    except ItemConsumed:
                        pass  # a replay of work this connection already saw
                start = sim.now
                if pl.duration > 0:
                    events = [sim.timeout(pl.duration), frame.abandon]
                    events += [view.death_event(p) for p in phys]
                    got = yield sim.any_of(events)
                    if got[0] != 0:
                        world.record_exec(
                            pl.task, ts, phys, start, sim.now, pl.variant,
                            preempted=True,
                        )
                        cause = "abandoned" if got[0] == 1 else "crash"
                        raise FrameLost(ts, frame.cause or cause)
                end = sim.now
                world.record_exec(pl.task, ts, phys, start, end, pl.variant)
                yield from emit(world, pl.task, ts, put)
                world.retire(pl.task, ts, end)
                frame.done[pl.task].succeed(end)
            except (FrameLost, FaultTimeout) as exc:
                if not frame.lost:
                    crash_lost.append(ts)
                    frame.mark_lost(
                        "stm-timeout" if isinstance(exc, FaultTimeout) else "crash"
                    )
                if not frame.done[pl.task].triggered:
                    frame.done[pl.task].fail(FrameLost(ts, frame.cause))
            finally:
                frame.remaining -= 1
                if frame.remaining == 0:
                    outstanding[0] -= 1
                    # A checkpoint replay may have re-registered this
                    # timestamp while the first attempt was still unwinding.
                    if frames.get(ts) is frame:
                        del frames[ts]

        def launch(ts: int, j: int, flat: FlatSchedule, epoch_start: float) -> None:
            # Iteration j of the epoch's pattern, lowered like the static
            # executor's, then moved onto the survivors: shape processors
            # become physical ones and times count from the epoch start.
            rows = flat.instantiate(j)
            for pl in rows:
                pl.procs = controller.physical_procs(pl.procs)
                pl.start += epoch_start
            pred_primary = {pl.task: pl.procs[0] for pl in rows}
            frame = _Frame(sim, ts, [pl.task for pl in rows])
            frames[ts] = frame
            outstanding[0] += 1
            for pl in rows:
                sim.process(run_placement(frame, pl, pred_primary), name=f"{pl.task}@{ts}")

        def pump():
            next_ts = 0
            seen_failovers = 0
            epoch_start = 0.0
            j = 0
            flat = FlatSchedule(controller.active.pipelined)
            while next_ts < iterations or replay_q or outstanding[0] > 0:
                if controller.switch_count != seen_failovers:
                    seen_failovers = controller.switch_count
                    epoch_start = max(sim.now, controller.resume_at)
                    j = 0
                    flat = FlatSchedule(controller.active.pipelined)
                if sim.now < controller.resume_at - _EPS:
                    yield sim.timeout(controller.resume_at - sim.now)
                    continue
                if next_ts >= iterations and not replay_q:
                    # Nothing to launch; idle one interval in case a late
                    # failover re-queues in-flight frames for replay.
                    yield sim.timeout(flat.period)
                    continue
                slot = epoch_start + j * flat.period
                if sim.now < slot - _EPS:
                    yield sim.timeout(slot - sim.now)
                    continue
                if replay_q:
                    ts = replay_q.popleft()
                else:
                    ts = next_ts
                    next_ts += 1
                launch(ts, j, flat, epoch_start)
                j += 1

        injector.start()
        detector.start()
        pump_proc = sim.process(pump(), name="frame-pump")

        hard_deadline = self._default_deadline(iterations)
        # Heartbeat processes beat forever, so the heap never drains; drive
        # the simulation until the pump and every frame have resolved.
        while sim.peek() is not None:
            if not pump_proc.alive and outstanding[0] == 0:
                break
            if sim.now > hard_deadline:  # pragma: no cover - safety valve
                for frame in list(frames.values()):
                    frame.mark_lost("deadline")
                break
            sim.step()

        base_solution = self.table.lookup(self.cluster)
        result = world.result(
            trace.makespan,
            iterations,
            {
                "policy": repr(self.faults.policy),
                "shape_table_size": len(self.table),
                "period": base_solution.period,
                "faults_applied": [
                    (a.time, type(a.event).__name__) for a in injector.applied
                ],
                "detections": [(d.time, d.kind, d.node) for d in detector.detections],
                "failovers": [
                    (
                        r.time,
                        r.effect.stall,
                        r.effect.lost_iterations,
                        r.effect.replayed_iterations,
                    )
                    for r in controller.records
                ],
                "unschedulable_detections": [
                    (d.time, d.kind, d.node) for d in unschedulable
                ],
                "frames_lost_crash": sorted(crash_lost),
                "frames_lost_transition": sorted(transition_lost),
                "frames_replayed": sorted(set(replayed)),
            },
        )
        crash_times = injector.crash_times()
        result.meta["recovery"] = recovery_stats(
            completions=result.completion_sequence(),
            period=base_solution.period,
            horizon=trace.makespan,
            crash_times=[t for t, _n in crash_times],
            detection_latencies=detector.detection_latencies(crash_times),
            frames_lost_crash=len(crash_lost),
            frames_lost_transition=len(transition_lost),
            frames_replayed=len(set(replayed)),
            failovers=controller.switch_count,
            total_stall=controller.total_stall,
        )
        return result

    def _default_deadline(self, iterations: int) -> float:
        """Generous upper bound on how long a sane run can take."""
        sols = self.table.solutions()
        worst_period = max(s.period for s in sols)
        worst_latency = max(s.latency for s in sols)
        last_fault = max((e.time for e in self.faults.plan), default=0.0)
        per_failover = worst_latency + RetryPolicy().budget + 1.0
        return (
            10.0
            + last_fault
            + iterations * worst_period * 3
            + (len(self.faults.plan) + 1) * (per_failover + iterations * worst_period)
        )
