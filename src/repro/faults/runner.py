"""The fault-tolerant executor: static schedules that survive failures.

This is the subsystem's integration point: it executes pre-computed
pipelined schedules (like :class:`~repro.runtime.static_exec.StaticExecutor`)
while a :class:`~repro.faults.inject.FaultInjector` replays a fault plan
underneath it.  The run proceeds in *epochs*: within an epoch the active
solution's iteration pattern is launched every initiation interval; when
the :class:`~repro.faults.detect.FailureDetector` confirms a failure, the
:class:`~repro.faults.failover.FailoverController` looks up the schedule
pre-computed for the degraded shape, the transition policy decides what
happens to the frames in flight (drain / abandon / replay), and
a new epoch starts on the survivors after the transition stall.

The simulated world itself — channels, collectors, connections, the edge
table, the frame ledger and the result — is the
:class:`~repro.runtime.hub.SimWorld` the static and dynamic executors also
run in, an epoch's iterations are lowered through the same
:class:`~repro.runtime.dispatch.FlatSchedule` as the static executor's
(one per active solution; each row is then mapped from shape to physical
processors and offset by the epoch start), and every iteration is started
through the same placement body,
:class:`~repro.runtime.static_exec.PlacementReplay`: gather → acquire →
finish → settle as plain calls on the heap, processors acquired and slips
counted (``meta["slips"]`` / ``meta["max_slip"]``) exactly as in a static
run.  What lives here is only what a failure adds — injector, detector,
controller, the epoch *pump* (a generator: its next wait depends on the
controller's state), ``on_detection`` and the loss lists — because a fault
is an event on that body, not a second body.  The event is
``lose(frame, cause)``: the frame leaves the set in flight at once, what it
is executing is recorded as pre-empted, its processors pass on and its
remaining heap entries fire as no-ops.  It is called

* by the body, when a placement's processors are not all alive at the
  moment it would start (``"crash"``) or when it has waited
  :data:`~repro.runtime.static_exec.PUT_WAIT` at a full channel whose
  consumer is gone (``"stm-timeout"``) — the one STM wait a placement can
  make, bounded so that a fault run always ends;
* one heap entry after a kill, for every frame executing on a dead
  processor (``"crash"``) — one entry later, so that a placement finishing
  at the kill instant has finished;
* by ``on_detection``, for every frame in flight when the transition policy
  abandons (``"transition"``) or replays (``"replayed"``) them.

Loss accounting distinguishes the two ways a frame dies:

* **crash loss** — a placement ran on (or was headed for) a processor
  that died before the failure was detected (``stm-timeout`` losses are
  counted here too).  Proportional to detection latency; no transition
  policy can prevent it.
* **transition loss** — an in-flight frame abandoned by an
  :class:`~repro.core.transition.ImmediateTransition`.  A
  :class:`~repro.core.transition.CheckpointTransition` converts these
  into *replays* instead: the timestamps are started again as second
  attempts.  A second attempt re-executes every placement; its puts skip
  the outputs STM still holds from the first attempt (a first attempt
  never skips: a duplicate put stays
  :class:`~repro.errors.DuplicateTimestamp`), and it reads nothing back
  from STM — precedence within a frame is the frame ledger's.

The generator body this replaced is kept in
``tests/faults/fault_generator_oracle.py`` as the differential oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ExecutorConfigError, ShapeUnschedulable
from repro.core.optimal import OptimalScheduler
from repro.core.transition import DrainTransition, TransitionPolicy
from repro.faults.detect import Detection, FailureDetector
from repro.faults.events import FaultPlan
from repro.faults.failover import FailoverController, ShapeTable
from repro.faults.inject import FaultInjector
from repro.faults.view import ClusterView
from repro.graph.taskgraph import TaskGraph
from repro.metrics.recovery import recovery_stats
from repro.runtime.dispatch import FlatSchedule, build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.runtime.static_exec import PUT_WAIT, PlacementReplay
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
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
    """

    plan: FaultPlan
    policy: TransitionPolicy = field(default_factory=DrainTransition)
    heartbeat_interval: float = 0.1
    detect_timeout: float = 0.3
    table: Optional[ShapeTable] = None


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
        crash_lost: list[int] = []
        transition_lost: list[int] = []
        replayed: list[int] = []
        unschedulable: list[Detection] = []

        def on_loss(ts: int, cause: str) -> None:
            if cause == "replayed":
                replay_q.append(ts)
                replayed.append(ts)
            elif cause == "transition":
                transition_lost.append(ts)
            else:  # crash, stm-timeout, deadline
                crash_lost.append(ts)

        replay = PlacementReplay(world, self.comm, dead=view.dead_procs, on_loss=on_loss)
        in_flight, lose = replay.in_flight, replay.lose

        def on_kill(kind: str, _target: int) -> None:
            # A kill pre-empts what executes on the dead processors one heap
            # entry later: a placement finishing at this very instant (its
            # entry is already on the heap) has finished.
            if kind in ("crash", "proc-loss"):
                sim.call_at(sim.now, replay.preempt_dead)

        view.on_change(on_kill)

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
                cause = "replayed" if effect.replayed_iterations > 0 else "transition"
                for frame in list(in_flight.values()):
                    lose(frame, cause)

        detector.subscribe(on_detection)

        def launch(ts: int, j: int, flat: FlatSchedule, epoch_start: float) -> None:
            # Iteration j of the epoch's pattern, lowered like the static
            # executor's, then moved onto the survivors: shape processors
            # become physical ones and times count from the epoch start.
            rows = flat.instantiate(j)
            for pl in rows:
                pl.procs = controller.physical_procs(pl.procs)
                pl.start += epoch_start
            replay.start(ts, rows, second=ts in replayed)

        def pump():
            next_ts = 0
            seen_failovers = 0
            epoch_start = 0.0
            j = 0
            flat = FlatSchedule(controller.active.pipelined)
            while next_ts < iterations or replay_q or in_flight:
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
        # the simulation until the pump has ended, which it does once every
        # frame has resolved.
        while pump_proc.alive and sim.peek() is not None:
            if sim.now > hard_deadline:  # pragma: no cover - safety valve
                for frame in list(in_flight.values()):
                    lose(frame, "deadline")
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
                "slips": replay.slips,
                "max_slip": replay.max_slip,
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
        per_failover = worst_latency + PUT_WAIT + 1.0
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
