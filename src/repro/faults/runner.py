"""The fault-tolerant executor: static schedules that survive failures.

This is the subsystem's integration point: it executes pre-computed
pipelined schedules (like :class:`~repro.runtime.static_exec.StaticExecutor`)
while a :class:`~repro.faults.inject.FaultInjector` replays a fault plan
underneath it.  The run proceeds in *epochs*: within an epoch the active
solution's iteration pattern is launched every initiation interval; when
the :class:`~repro.faults.detect.FailureDetector` confirms a failure, the
:class:`~repro.faults.failover.FailoverController` looks up the schedule
pre-computed for the degraded shape, the transition policy decides what
happens to the frames in flight (drain / abandon / replay-from-STM), and
a new epoch starts on the survivors after the transition stall.

The simulated world itself — channels, collectors, connections, the edge
table, the frame ledger and the result — is the
:class:`~repro.runtime.hub.SimWorld` the static and dynamic executors also
run in, and an epoch's iterations are lowered through the same
:class:`~repro.runtime.dispatch.FlatSchedule` as the static executor's
(one per active solution; each row is then mapped from shape to physical
processors and offset by the epoch start).  What lives here is only what a
failure adds: epochs, abandon / death / retry and the loss accounting.

Loss accounting distinguishes the two ways a frame dies:

* **crash loss** — a placement ran on (or was headed for) a processor
  that died before the failure was detected.  Proportional to detection
  latency; no transition policy can prevent it.
* **transition loss** — an in-flight frame abandoned by an
  :class:`~repro.core.transition.ImmediateTransition`.  A
  :class:`~repro.core.transition.CheckpointTransition` converts these
  into *replays* instead: the timestamps re-execute, reusing whatever
  items the first attempt already left in STM.

Unlike the plain static executor, placements here do not acquire
capacity-1 processor resources: each epoch executes one validated
schedule, and the transition stall separates epochs in time, so the
no-overlap guarantee is inherited from schedule validation rather than
re-enforced at run time (a deliberate trade — dead processors would
otherwise hold their resource grants forever).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import (
    ExecutorConfigError,
    FaultTimeout,
    FrameLost,
    ItemConsumed,
    ShapeUnschedulable,
)
from repro.core.optimal import OptimalScheduler
from repro.core.transition import DrainTransition, TransitionPolicy
from repro.faults.detect import Detection, FailureDetector
from repro.faults.events import FaultPlan
from repro.faults.failover import FailoverController, ShapeTable
from repro.faults.inject import FaultInjector
from repro.faults.retry import RetryPolicy, get_with_retry, put_with_retry
from repro.faults.view import ClusterView
from repro.graph.taskgraph import TaskGraph
from repro.metrics.recovery import recovery_stats
from repro.runtime.dispatch import FlatPlacement, FlatSchedule, build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator
from repro.sim.network import CommModel
from repro.sim.trace import TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability

__all__ = ["FaultRuntime", "FaultTolerantExecutor"]

_EPS = 1e-9


@dataclass
class FaultRuntime:
    """Everything a fault-tolerant run needs besides the application.

    Attributes
    ----------
    plan:
        The failure script to replay.
    policy:
        Transition policy applied at each failover (default: drain).
    heartbeat_interval / detect_timeout:
        Detector configuration; detection latency is bounded by
        ``detect_timeout + heartbeat_interval``.
    table:
        Pre-built :class:`~repro.faults.failover.ShapeTable`; built on
        demand (single-node-loss plus single-processor-loss shapes) when
        None.
    retry:
        Backoff budget for STM operations issued by frame placements.
    """

    plan: FaultPlan
    policy: TransitionPolicy = field(default_factory=DrainTransition)
    heartbeat_interval: float = 0.1
    detect_timeout: float = 0.3
    table: Optional[ShapeTable] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)


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


class FaultTolerantExecutor:
    """Execute pre-computed schedules under an injected fault plan.

    Parameters
    ----------
    graph / state / cluster:
        The application and the *nominal* platform.
    faults:
        The :class:`FaultRuntime` bundle (plan, policy, detector, table).
    comm:
        Communication model for inter-placement delays (``None`` = free).
        When a shape table is built on demand, each degraded shape gets a
        comm model with the same tier costs rebuilt over its topology.
    obs:
        Optional :class:`~repro.obs.Observability` bundle: failure
        detections, failover transitions (with their stall window),
        executed placements and STM item traffic are reported live.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        faults: FaultRuntime,
        comm: Optional[CommModel] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.faults = faults
        self.obs = obs
        self.comm = comm or CommModel.free(cluster)
        if faults.table is not None:
            self.table = faults.table
        else:
            tiers = dict(
                intra_node=self.comm.intra_node,
                inter_node=self.comm.inter_node,
                same_proc=self.comm.same_proc,
            )
            self.table = ShapeTable.build(
                graph,
                state,
                cluster,
                scheduler_factory=lambda spec: OptimalScheduler(
                    spec, comm=CommModel(spec, **tiers)
                ),
            )

    def run(self, iterations: int) -> ExecutionResult:
        """Execute ``iterations`` timestamps through crashes and failovers."""
        if iterations < 1:
            raise ExecutorConfigError(f"iterations must be >= 1, got {iterations}")
        obs = self.obs
        retry = self.faults.retry
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
                yield from world.emit(pl.task, ts, put)
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
        per_failover = worst_latency + self.faults.retry.budget + 1.0
        return (
            10.0
            + last_fault
            + iterations * worst_period * 3
            + (len(self.faults.plan) + 1) * (per_failover + iterations * worst_period)
        )

    def __repr__(self) -> str:
        return (
            f"FaultTolerantExecutor(state={self.state}, "
            f"shapes={len(self.table)}, plan={self.faults.plan!r})"
        )
