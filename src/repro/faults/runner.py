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

Nothing of that loop lives here.  The simulated world
(:class:`~repro.runtime.hub.SimWorld`), the lowering of each epoch's pattern
(:class:`~repro.runtime.dispatch.FlatSchedule`, rows mapped from shape to
physical processors and offset by the epoch start), the launch of iteration
*j* at ``epoch_start + j * II``, the placement body
(:class:`~repro.runtime.static_exec.PlacementReplay`: processors acquired
and slips counted exactly as in a static run) and the transition policy's
verdict on the frames in flight are the one
:class:`~repro.runtime.static_exec.EpochDriver` the static executor and the
regime experiment also run on: to the driver a failover is a switch like any
other.  What lives here is only what a failure adds — the cluster view, the
injector, the detector, the :class:`~repro.faults.failover.FailoverController`,
``on_kill``, ``on_detection`` with its unschedulable list, the loss lists,
the stepping loop with its hard deadline (heartbeats never let the heap
drain) and ``recovery_stats`` — because a fault is an event on that body,
not a second body.  The event is ``lose(frame, cause)``: the frame leaves
the set in flight at once, what it is executing is recorded as pre-empted,
its processors pass on and its remaining heap entries fire as no-ops.  It is
called

* by the body, when a placement's processors are not all alive at the
  moment it would start (``"crash"``) or when it has waited
  :data:`~repro.runtime.static_exec.PUT_WAIT` at a full channel whose
  consumer is gone (``"stm-timeout"``) — the one STM wait a placement can
  make, bounded so that a fault run always ends;
* one heap entry after a kill, for every frame executing on a dead
  processor (``"crash"``) — one entry later, so that a placement finishing
  at the kill instant has finished;
* by the driver's ``switched``, which ``on_detection`` hands every failover
  record, for every frame in flight when the transition policy abandons
  (``"transition"``) or replays (``"replayed"``) them.

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
"""

from __future__ import annotations

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
from repro.runtime.result import ExecutionResult
from repro.runtime.static_exec import PUT_WAIT, EpochDriver
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.sim.trace import Mark
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs import Observability

__all__ = ["FaultRuntime", "FaultTolerantExecutor"]

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
        Optional :class:`~repro.obs.Observability` bundle, subscribed to
        the run's trace: executed placements, STM item traffic, failure
        detections and failover transitions (with their stall window) —
        the last two are :class:`~repro.sim.trace.Mark` records of every
        fault run — reach it as they are recorded.
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
        driver = EpochDriver(self.graph, self.state, self.cluster, self.comm, self.obs)
        sim, trace = driver.sim, driver.trace

        view = ClusterView(self.cluster)
        injector = FaultInjector(sim, view, self.faults.plan)
        detector = FailureDetector(
            sim,
            view,
            heartbeat_interval=self.faults.heartbeat_interval,
            timeout=self.faults.detect_timeout,
        )
        controller = FailoverController(self.table, view, self.faults.policy)

        # Lost frames by cause; an stm-timeout or a deadline loss counts as
        # a crash loss.  A timestamp can be replayed more than once.
        lost: dict[str, list[int]] = {"crash": [], "transition": [], "replayed": []}
        unschedulable: list[Detection] = []

        def on_loss(ts: int, cause: str) -> None:
            lost.get(cause, lost["crash"]).append(ts)

        def on_kill(kind: str, _target: int) -> None:
            # A kill pre-empts what executes on the dead processors one heap
            # entry later: a placement finishing at this very instant (its
            # entry is already on the heap) has finished.
            if kind in ("crash", "proc-loss"):
                sim.call_at(sim.now, driver.replay.preempt_dead)

        view.on_change(on_kill)

        def on_detection(det: Detection) -> None:
            trace.record_mark(Mark.detection(det.time, det.kind, f"node={det.node}"))
            try:
                record = controller.on_detection(det)
            except ShapeUnschedulable:
                # Nothing pre-computed can run on what survives; keep the
                # current schedule and let crash losses tell the story.
                unschedulable.append(det)
                return
            if record is not None:
                trace.record_mark(Mark.failover(
                    record.time, controller.resume_at, f"{det.kind}:{det.node}"
                ))
            driver.switched(record)

        detector.subscribe(on_detection)

        injector.start()
        detector.start()
        driver.start(controller, iterations, dead=view.dead_procs, on_loss=on_loss)

        hard_deadline = self._default_deadline(iterations)
        # Heartbeats re-arm themselves forever, so the heap never drains; drive
        # the simulation until the driver is done, which it is once every
        # frame has resolved.
        while not driver.done and sim.peek() is not None:
            if sim.now > hard_deadline:  # pragma: no cover - safety valve
                for frame in list(driver.replay.in_flight.values()):
                    driver.replay.lose(frame, "deadline")
                break
            sim.step()
        driver.release()

        base_solution = self.table.lookup(self.cluster)
        result = driver.result(
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
                "frames_lost_crash": sorted(lost["crash"]),
                "frames_lost_transition": sorted(lost["transition"]),
                "frames_replayed": sorted(set(lost["replayed"])),
            },
        )
        crash_times = injector.crash_times()
        result.meta["recovery"] = recovery_stats(
            completions=result.completion_sequence(),
            period=base_solution.period,
            horizon=driver.trace.makespan,
            crash_times=[t for t, _n in crash_times],
            detection_latencies=detector.detection_latencies(crash_times),
            frames_lost_crash=len(lost["crash"]),
            frames_lost_transition=len(lost["transition"]),
            frames_replayed=len(set(lost["replayed"])),
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
