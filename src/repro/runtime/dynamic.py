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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ExecutorConfigError, ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.sched.online import OnlineScheduler
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.state import State
from repro.stm.channel import STMChannel

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.faults.events import FaultPlan
    from repro.obs import Observability

__all__ = ["DynamicExecutor"]


class DynamicExecutor:
    """Execute a task graph dynamically under an on-line scheduler.

    Parameters
    ----------
    graph / state / cluster:
        What to run, in which application state, on which cluster.
    scheduler:
        An :class:`~repro.sched.online.OnlineScheduler` (the pthread model).
    input_policy:
        ``"latest"`` (frame-skipping) or ``"inorder"``.
    capacity_override:
        Per-channel capacity overrides (flow-control ablation).
    faults:
        Optional :class:`~repro.faults.events.FaultPlan` injected during
        the run.  The scheduler is bound with a live
        :class:`~repro.faults.view.ClusterView`: dead processors are never
        granted, a slice in flight on a dying processor is lost (the
        thread migrates and redoes that quantum), and recovered nodes
        rejoin the grant pool.  Note the contrast with the fault-tolerance
        subsystem: the on-line model merely *survives* failures — it has
        no shape table to fail over to, so throughput degrades however the
        quantum lottery lands (§3.2 vs §3.4).
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Quantum spans
        are traced as-is (with their ``preempted`` flag) but excluded from
        cost calibration — a quantum is a slice of a cost, not a cost;
        instead the *aggregated* busy time of each completed (task,
        timestamp) feeds the calibrator.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        scheduler: OnlineScheduler,
        input_policy: str = "latest",
        capacity_override: Optional[dict[str, Optional[int]]] = None,
        faults: Optional["FaultPlan"] = None,
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
        self.faults = faults
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
        obs = self.obs
        scheduler = self.scheduler
        world = SimWorld(
            self.graph, self.state, self.cluster, sim, trace,
            build_hubs(sim, self.graph, trace, self.capacity_override, obs=obs),
            build_task_plans(self.graph), obs,
        )
        view = injector = None
        if self.faults is not None:
            from repro.faults.inject import FaultInjector
            from repro.faults.view import ClusterView

            view = ClusterView(sim, self.cluster)
            injector = FaultInjector(sim, view, self.faults)
            injector.start()
        scheduler.bind(sim, self.cluster, view=view)
        emitted = [0]
        fault_preemptions = [0]

        def execute(name: str, ts: int, nominal: float):
            """Run ``nominal`` seconds of work in scheduler quanta (generator)."""
            remaining = nominal
            busy = 0.0
            while True:
                proc = yield scheduler.acquire(name, priority=float(ts))
                speed = view.speed(proc) if view is not None else self._speed[proc]
                slice_time = min(scheduler.quantum, remaining / speed)
                start = sim.now
                if slice_time > 0:
                    if view is not None:
                        idx, _val = yield sim.any_of(
                            [sim.timeout(slice_time), view.death_event(proc)]
                        )
                        if idx == 1:
                            # The processor died under the thread: the partial
                            # quantum is lost and the thread migrates, redoing
                            # this slice on whatever survives.
                            world.record_exec(
                                name, ts, (proc,), start, sim.now,
                                preempted=True, calibrate=False,
                            )
                            fault_preemptions[0] += 1
                            scheduler.invalidate(name, proc)
                            continue
                    else:
                        yield sim.timeout(slice_time)
                remaining -= slice_time * speed
                busy += slice_time
                done = remaining <= 1e-12
                world.record_exec(
                    name, ts, (proc,), start, sim.now,
                    preempted=not done, calibrate=False,
                )
                if done and obs is not None:
                    obs.on_cost_sample(name, "serial", busy, time=sim.now)
                if not done and hasattr(scheduler, "preemptions"):
                    scheduler.preemptions += 1
                scheduler.release(name, proc)
                if done:
                    return

        def source(task: Task):
            ts = 0
            cost = task.cost(self.state)
            if task.period is None and cost <= 0:
                raise ReproError(
                    f"source {task.name!r} has no period and zero cost; "
                    "it would flood the simulation at a single instant"
                )
            while max_timestamps is None or ts < max_timestamps:
                if task.period is not None:
                    target = ts * task.period
                    if sim.now < target:
                        yield sim.timeout(target - sim.now)
                yield from execute(task.name, ts, cost)
                yield from world.emit(task.name, ts)
                world.retire(task.name, ts, sim.now)
                emitted[0] = ts + 1
                ts += 1

        def consumer(task: Task):
            last = -1
            cost = task.cost(self.state)
            statics = world.plans[task.name].static_inputs
            inputs = [
                (world.hubs[ch], conn, ch in statics)
                for ch, conn in world.conns_in[task.name].items()
            ]
            streams = [hub for hub, _conn in world.stream_in[task.name]]
            chans = [hub.stm for hub in streams]
            while True:
                ts = self._pick_timestamp(chans, last)
                if ts is None:
                    yield sim.any_of([hub.wait_change() for hub in streams])
                    continue
                # Retrieve inputs (streaming at ts; static at their only item).
                ok = True
                for hub, conn, static in inputs:
                    if static:
                        hub.try_get(conn, hub.stm.newest_timestamp() or 0)
                    elif hub.try_get(conn, ts) is None:
                        # defensive: item vanished between pick and get
                        ok = False
                        break
                if not ok:
                    last = ts  # skip the frame; guarantees loop progress
                    continue
                yield from execute(task.name, ts, cost)
                yield from world.emit(task.name, ts)
                world.retire(task.name, ts, sim.now)
                last = ts

        sources = set(self.graph.source_tasks())
        for t in self.graph.tasks:
            if t.name in sources:
                sim.process(source(t), name=f"src:{t.name}")
            else:
                sim.process(consumer(t), name=f"task:{t.name}")

        sim.run(until=horizon)

        return world.result(
            horizon,
            emitted[0],
            {
                "scheduler": repr(scheduler),
                "policy": self.input_policy,
                "faults_applied": len(injector.applied) if injector else 0,
                "fault_preemptions": fault_preemptions[0],
                "dead_procs": sorted(view.dead_procs) if view else [],
            },
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
