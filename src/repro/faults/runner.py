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
    FaultTimeout,
    FrameLost,
    ItemConsumed,
    ReproError,
    ShapeUnschedulable,
)
from repro.core.optimal import OptimalScheduler, ScheduleSolution
from repro.core.transition import DrainTransition, TransitionPolicy
from repro.faults.detect import Detection, FailureDetector
from repro.faults.events import FaultPlan
from repro.faults.failover import FailoverController, ShapeTable
from repro.faults.inject import FaultInjector
from repro.faults.retry import RetryPolicy, get_with_retry, put_with_retry
from repro.faults.view import ClusterView
from repro.graph.taskgraph import TaskGraph
from repro.metrics.recovery import recovery_stats
from repro.runtime.hub import build_hubs
from repro.runtime.result import ExecutionResult
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import SimEvent, Simulator
from repro.sim.network import CommModel
from repro.sim.trace import ExecSpan, TraceRecorder
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
        self.abandon: SimEvent = sim.event(f"abandon:{ts}")
        self.done: dict[str, SimEvent] = {t: sim.event(f"done:{ts}:{t}") for t in tasks}
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

    def run(self, iterations: int, deadline: Optional[float] = None) -> ExecutionResult:
        """Execute ``iterations`` timestamps through crashes and failovers."""
        if iterations < 1:
            raise ReproError(f"iterations must be >= 1, got {iterations}")
        obs = self.obs
        if obs is not None:
            from repro.obs.calibrate import node_class_of

        sim = Simulator()
        trace = TraceRecorder()
        hubs = build_hubs(sim, self.graph, trace, obs=obs)

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
        digitize_times: dict[int, float] = {}
        sink_names = set(self.graph.sink_tasks())
        sink_done: dict[str, dict[int, float]] = {s: {} for s in sink_names}
        completion: dict[int, float] = {}
        sources = set(self.graph.source_tasks())
        preds = {t.name: self.graph.predecessors(t.name) for t in self.graph.tasks}
        edge_bytes = {
            (p, t.name): self.graph.comm_bytes(p, t.name, self.state)
            for t in self.graph.tasks
            for p in preds[t.name]
        }

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

        # Static configuration channels are populated once, up front.
        for spec in self.graph.channels:
            if spec.static:
                conn = hubs[spec.name].stm.attach_output("-env-")
                hubs[spec.name].stm.put(conn, 0, {"state": self.state})

        collector_conns = {
            spec.name: hubs[spec.name].stm.attach_input("-collector-")
            for spec in self.graph.channels
            if not spec.static
            and self.graph.producers(spec.name)
            and not self.graph.consumers(spec.name)
        }
        conns_in = {
            t.name: {ch: hubs[ch].stm.attach_input(t.name) for ch in t.inputs}
            for t in self.graph.tasks
        }
        conns_out = {
            t.name: {ch: hubs[ch].stm.attach_output(t.name) for ch in t.outputs}
            for t in self.graph.tasks
        }

        def frame_resolved(frame: _Frame) -> None:
            outstanding[0] -= 1
            if not frame.lost:
                if all(frame.ts in sink_done[s] for s in sink_names):
                    completion[frame.ts] = max(
                        sink_done[s][frame.ts] for s in sink_names
                    )
                    if obs is not None and frame.ts in digitize_times:
                        obs.on_frame(
                            frame.ts, completion[frame.ts] - digitize_times[frame.ts]
                        )
            # A checkpoint replay may have re-registered this timestamp
            # while the first attempt was still unwinding.
            if frames.get(frame.ts) is frame:
                del frames[frame.ts]

        def run_placement(frame: _Frame, pl, pred_primary: dict[str, int]):
            ts = frame.ts
            phys = pl.procs  # already translated to physical indices
            task = self.graph.task(pl.task)
            try:
                ready = pl.start
                for pred in preds[pl.task]:
                    pend = yield frame.done[pred]  # raises FrameLost on cascade
                    delay = self.comm.transfer_time(
                        edge_bytes[(pred, pl.task)], pred_primary[pred], phys[0]
                    )
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
                for ch in task.inputs:
                    if self.graph.channel(ch).static:
                        continue
                    try:
                        yield from get_with_retry(
                            hubs[ch], conns_in[pl.task][ch], ts, self.faults.retry
                        )
                    except ItemConsumed:
                        pass  # a replay of work this connection already saw
                start = sim.now
                if pl.duration > 0:
                    events = [sim.timeout(pl.duration), frame.abandon]
                    events += [view.death_event(p) for p in phys]
                    got = yield sim.any_of(events)
                    if got[0] != 0:
                        for p in phys:
                            trace.record_span(
                                ExecSpan(p, pl.task, ts, start, sim.now, preempted=True)
                            )
                        cause = "abandoned" if got[0] == 1 else "crash"
                        raise FrameLost(ts, frame.cause or cause)
                end = sim.now
                for p in phys:
                    trace.record_span(ExecSpan(p, pl.task, ts, start, end))
                if obs is not None:
                    obs.on_exec(
                        pl.task,
                        start,
                        end,
                        proc=phys[0],
                        variant=pl.variant,
                        timestamp=ts,
                        node_class=node_class_of(self.cluster, phys[0]),
                    )
                for ch in task.outputs:
                    hub = hubs[ch]
                    if not hub.stm.holds(ts):  # replays reuse surviving items
                        size = self.graph.channel(ch).item_size(self.state)
                        yield from put_with_retry(
                            hub, conns_out[pl.task][ch], ts, {"ts": ts},
                            size=size, policy=self.faults.retry,
                        )
                    collector = collector_conns.get(ch)
                    if collector is not None:
                        hub.try_get(collector, ts)
                        hub.consume(collector, ts)
                if pl.task in sources:
                    digitize_times.setdefault(ts, sim.now)
                for ch in task.inputs:
                    if self.graph.channel(ch).static:
                        continue
                    hubs[ch].consume(conns_in[pl.task][ch], ts)
                if pl.task in sink_names:
                    sink_done[pl.task][ts] = end
                frame.done[pl.task].succeed(end)
            except FrameLost:
                if not frame.lost:
                    crash_lost.append(ts)
                    frame.mark_lost("crash")
                if not frame.done[pl.task].triggered:
                    frame.done[pl.task].fail(FrameLost(ts, frame.cause))
            except FaultTimeout:
                if not frame.lost:
                    crash_lost.append(ts)
                    frame.mark_lost("stm-timeout")
                if not frame.done[pl.task].triggered:
                    frame.done[pl.task].fail(FrameLost(ts, frame.cause))
            finally:
                frame.remaining -= 1
                if frame.remaining == 0:
                    frame_resolved(frame)

        def launch(ts: int, j: int, sol: ScheduleSolution, epoch_start: float) -> None:
            mapping = dict(controller.mapping)
            physical = [
                pl.__class__(
                    task=pl.task,
                    procs=tuple(mapping[q] for q in pl.procs),
                    start=pl.start + epoch_start,
                    duration=pl.duration,
                    variant=pl.variant,
                )
                for pl in sol.pipelined.instantiate(j)
            ]
            pred_primary = {pl.task: pl.procs[0] for pl in physical}
            frame = _Frame(sim, ts, [pl.task for pl in physical])
            frames[ts] = frame
            outstanding[0] += 1
            for pl in physical:
                sim.process(run_placement(frame, pl, pred_primary), name=f"{pl.task}@{ts}")

        def pump():
            next_ts = 0
            seen_failovers = 0
            epoch_start = 0.0
            j = 0
            while next_ts < iterations or replay_q or outstanding[0] > 0:
                if controller.switch_count != seen_failovers:
                    seen_failovers = controller.switch_count
                    epoch_start = max(sim.now, controller.resume_at)
                    j = 0
                if sim.now < controller.resume_at - _EPS:
                    yield sim.timeout(controller.resume_at - sim.now)
                    continue
                sol = controller.active
                if next_ts >= iterations and not replay_q:
                    # Nothing to launch; idle one interval in case a late
                    # failover re-queues in-flight frames for replay.
                    yield sim.timeout(sol.period)
                    continue
                slot = epoch_start + j * sol.period
                if sim.now < slot - _EPS:
                    yield sim.timeout(slot - sim.now)
                    continue
                if replay_q:
                    ts = replay_q.popleft()
                else:
                    ts = next_ts
                    next_ts += 1
                launch(ts, j, sol, epoch_start)
                j += 1

        injector.start()
        detector.start()
        pump_proc = sim.process(pump(), name="frame-pump")

        hard_deadline = (
            deadline if deadline is not None else self._default_deadline(iterations)
        )
        # Heartbeat processes beat forever, so the heap never drains; drive
        # the simulation until the pump and every frame have resolved.
        while sim._heap:
            if not pump_proc.alive and outstanding[0] == 0:
                break
            if sim.now > hard_deadline:  # pragma: no cover - safety valve
                for frame in list(frames.values()):
                    frame.mark_lost("deadline")
                break
            sim.step()

        base_solution = self.table.lookup(self.cluster)
        gc_total = sum(h.gc_stats.collected for h in hubs.values())
        high_water = sum(h.gc_stats.high_water_items for h in hubs.values())
        crash_times = injector.crash_times()
        stats = recovery_stats(
            completions=sorted(completion.values()),
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
        return ExecutionResult(
            graph=self.graph,
            state=self.state,
            trace=trace,
            digitize_times=digitize_times,
            completion_times=completion,
            horizon=trace.makespan,
            emitted=iterations,
            gc_collected=gc_total,
            live_item_high_water=high_water,
            meta={
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
                "recovery": stats,
            },
        )

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
