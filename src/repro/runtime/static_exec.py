"""The static executor: replay and verify a pre-computed pipelined schedule.

The paper implements its optimal schedules "by creating additional
dependencies" so the underlying scheduler "does the right thing"; this
executor is the simulation equivalent.  Nothing is decided while it runs —
the schedule is one fixed pattern repeated every II with rotated
processors (Figure 6 step 3) — so a placement is not a process but four
plain calls on the simulator's heap
(:meth:`~repro.sim.engine.Simulator.call_at`), each made by the one before
it.  Iteration *k* is launched at ``k * II``; every one of its placements

1. **gathers** its predecessors: it parks on one that has not settled, and
   is charged the communication delay between the two primary processors
   from the moment one has (under ``contended=True`` the delay is a
   :meth:`~repro.sim.fabric.LinkFabric.transfer` process it waits for);
   it is ready at the later of that and ``k * II + placement.start``;
2. **acquires** exactly its scheduled processors, each of capacity one and
   served FIFO, so an invalid schedule slips (or deadlocks) instead of
   silently double-booking;
3. **finishes** ``duration`` later: the execution is recorded and the
   processors pass to whoever queued behind it;
4. **settles**: puts its outputs into STM (waiting for the next change of
   a channel that is full), consumes its inputs and resumes the placements
   parked on it (the STM wiring, the frame ledger and the result are the
   :class:`~repro.runtime.hub.SimWorld` every DES executor shares).

Heap and memory therefore follow the frames in flight, not the length of
the run.  Any positive difference between the actual and scheduled start is
recorded as a *slip*; a correct schedule executes with zero slips, and
tests assert this for every schedule the optimizers produce.  A run whose
heap drains with placements still parked raises
:class:`~repro.errors.SimDeadlock` naming them ``<task>@<iteration>``.

The generator body this replaced (one ``Process`` per placement per
iteration) is kept in ``tests/runtime/static_generator_oracle.py`` as the
differential oracle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ExecutorConfigError, SimDeadlock
from repro.core.optimal import ScheduleSolution
from repro.core.schedule import PipelinedSchedule
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import FlatPlacement, FlatSchedule, build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.result import ExecutionResult
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.network import CommModel
from repro.sim.trace import TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.analysis.race import RaceChecker
    from repro.faults.runner import FaultRuntime
    from repro.obs import Observability

__all__ = ["StaticExecutor"]

_EPS = 1e-9


class _Frame:
    """One iteration in flight: the end time of each placement that has
    settled, and the placements parked on one that has not."""

    __slots__ = ("k", "ends", "parked")

    def __init__(self, k: int) -> None:
        self.k = k
        self.ends: dict[str, float] = {}
        # predecessor -> [(placement, index of the edge it waits at, ready)]
        self.parked: dict[str, list[tuple[FlatPlacement, int, float]]] = {}


class StaticExecutor:
    """Execute a :class:`~repro.core.schedule.PipelinedSchedule` in simulation.

    Parameters
    ----------
    graph / state / cluster:
        The application and platform.
    schedule:
        A :class:`PipelinedSchedule` or a full :class:`ScheduleSolution`.
    comm:
        Communication model used for inter-placement data delays
        (``None`` = free).
    contended:
        When True, transfers go through a
        :class:`~repro.sim.fabric.LinkFabric`: concurrent messages over
        one memory bus / network link serialize (a consumer fetches its
        inputs sequentially).  The schedule was computed from the pure
        cost table, so contention shows up as slips —
        ``meta["contended_time"]`` reports the total link-wait.
    faults:
        Optional :class:`~repro.faults.runner.FaultRuntime`.  When set,
        :meth:`run` delegates to the fault-tolerance subsystem's
        :class:`~repro.faults.runner.FaultTolerantExecutor`: the schedule
        passed here is superseded by a table of optimal schedules, one per
        reachable degraded cluster shape, and failures become regime
        changes selecting among them (§3.4).  Incompatible with
        ``contended``.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  When set,
        every placement execution, inter-placement transfer, slip and
        completed frame is reported to the live metrics/tracing layer —
        and, if the bundle carries a calibrator, feeds cost-model drift
        detection.
    runtime:
        Which substrate executes the schedule: ``"sim"`` (default, the
        discrete-event simulation above), ``"threaded"`` (real kernels on
        Python threads) or ``"process"`` (real kernels on one worker
        process per scheduled cluster node — genuine parallelism).  The
        live substrates need ``compute`` kernels on the tasks and report
        wall-clock times in the result's digitize/completion fields.
    static_inputs:
        Values for static configuration channels, required by the live
        substrates (e.g. ``{"color_model": models}``); the simulation
        substrate fills statics with a stub and ignores this.
    verify:
        Run analysis passes 1-3 (graph lint, schedule certificate, STM
        protocol) over the inputs at construction time and raise
        :class:`~repro.errors.AnalysisError` on any ERROR finding —
        misconfigurations surface before anything executes.
    analysis:
        Optional :class:`~repro.analysis.race.RaceChecker` (pass 4).
        Threaded runtime only: channels swap their lock for a tracked one
        and report puts/gets, so the checker sees every happens-before
        edge; read its findings with ``analysis.report()`` after the run.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        schedule: Union[PipelinedSchedule, ScheduleSolution],
        comm: Optional[CommModel] = None,
        contended: bool = False,
        faults: Optional["FaultRuntime"] = None,
        obs: Optional["Observability"] = None,
        runtime: str = "sim",
        static_inputs: Optional[dict] = None,
        verify: bool = False,
        analysis: Optional["RaceChecker"] = None,
    ) -> None:
        graph.validate()
        if runtime not in ("sim", "threaded", "process"):
            raise ExecutorConfigError(
                f"unknown runtime {runtime!r}; pick sim, threaded or process"
            )
        if faults is not None and contended:
            raise ExecutorConfigError(
                "contended transfers are not supported under fault injection"
            )
        if runtime != "sim":
            from repro.runtime.process import ProcessFaultPlan

            if contended:
                raise ExecutorConfigError(
                    "contended transfers exist only on the sim substrate"
                )
            if faults is not None and not (
                runtime == "process" and isinstance(faults, ProcessFaultPlan)
            ):
                raise ExecutorConfigError(
                    "live substrates take faults as a ProcessFaultPlan "
                    "(process runtime only)"
                )
        if analysis is not None and runtime != "threaded":
            raise ExecutorConfigError(
                "the race checker (analysis=) instruments real threads; "
                "it requires runtime='threaded'"
            )
        solution = schedule if isinstance(schedule, ScheduleSolution) else None
        if isinstance(schedule, ScheduleSolution):
            schedule = schedule.pipelined
        if verify:
            self._verify_startup(graph, state, cluster, schedule, solution, comm)
        if schedule.n_procs > cluster.total_processors:
            raise ExecutorConfigError(
                f"schedule needs {schedule.n_procs} processors, cluster has "
                f"{cluster.total_processors}"
            )
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.schedule = schedule
        self.comm = comm or CommModel.free(cluster)
        self.contended = contended
        self.faults = faults
        self.obs = obs
        self.runtime = runtime
        self.static_inputs = dict(static_inputs or {})
        self.analysis = analysis

    @staticmethod
    def _verify_startup(graph, state, cluster, schedule, solution, comm) -> None:
        """Opt-in ``verify=`` gate: analysis passes 1-3 and 5 on this
        executor's inputs; raises :class:`~repro.errors.AnalysisError` on
        ERROR findings before anything runs."""
        # Deferred import: repro.analysis imports schedule/graph modules.
        from repro.analysis import check_model, check_stm, lint_graph, verify_solution
        from repro.errors import AnalysisError

        if solution is None:
            # A bare PipelinedSchedule carries no provenance; wrap it so
            # the verifier can re-derive its claims all the same.
            solution = ScheduleSolution(
                state=state,
                iteration=schedule.iteration,
                pipelined=schedule,
                alternatives=0,
                explored=0,
            )
        report = lint_graph(graph, states=[state])
        verify_solution(solution, graph, cluster, comm=comm, report=report)
        check_stm(graph, solution, report=report)
        check_model(graph, solution, report=report)
        if not report.ok():
            raise AnalysisError(report)

    def run(self, iterations: int) -> ExecutionResult:
        """Execute ``iterations`` timestamps and drain."""
        if iterations < 1:
            raise ExecutorConfigError(f"iterations must be >= 1, got {iterations}")
        if self.runtime != "sim":
            return self._run_live(iterations)
        if self.faults is not None:
            from repro.faults.runner import FaultTolerantExecutor

            return FaultTolerantExecutor(
                self.graph, self.state, self.cluster, self.faults, comm=self.comm,
                obs=self.obs,
            ).run(iterations)
        obs = self.obs
        if obs is not None:
            from repro.obs.calibrate import tier_name

            obs.on_period(self.schedule.period)
        sim = Simulator()
        trace = TraceRecorder()
        # Flat dispatch tables: schedule lookups and channel classification
        # compiled once, outside the per-iteration loop.
        flat = FlatSchedule(self.schedule)
        world = SimWorld(
            self.graph, self.state, self.cluster, sim, trace,
            build_hubs(sim, self.graph, trace, obs=obs),
            build_task_plans(self.graph), obs,
        )
        fabric = None
        if self.contended:
            from repro.sim.fabric import LinkFabric

            fabric = LinkFabric(sim, self.cluster, self.comm)
        comm, cluster = self.comm, self.cluster
        call_at = sim.call_at
        edges = world.edges
        record_exec, try_emit, retire = world.record_exec, world.try_emit, world.retire

        # Capacity-1 processors: held by one placement, FIFO behind it.
        busy: set[int] = set()
        queued: dict[int, deque] = {p.index: deque() for p in cluster.processors}
        in_flight: dict[int, _Frame] = {}
        n_rows = len(flat)
        slips = 0
        max_slip = 0.0

        def launch(k: int) -> None:
            # Iteration k: same pattern, rotated processors (Figure 6 step 3).
            in_flight[k] = frame = _Frame(k)
            for pl in flat.instantiate(k):
                gather(frame, pl, 0, pl.start)
            if k + 1 < iterations:
                call_at((k + 1) * flat.period, launch, k + 1)

        def gather(frame: _Frame, pl: FlatPlacement, at: int, ready: float) -> None:
            # Step 1.  Walk the incoming edges from ``at``: park on a
            # predecessor that has not settled (its settle() resumes here),
            # charge the transfer from one that has.  A transfer begins the
            # moment the predecessor finishes, overlapping any slack before
            # the scheduled start.
            incoming = edges[pl.task]
            while at < len(incoming):
                pred, nbytes, channels = incoming[at]
                pred_end = frame.ends.get(pred)
                if pred_end is None:
                    frame.parked.setdefault(pred, []).append((pl, at, ready))
                    return
                src = flat.primary(pred, frame.k)
                at += 1
                if fabric is not None:
                    # Contended mode: fetch the input over the shared links
                    # (sequentially — a task pulls its inputs one by one).
                    sim.process(
                        fabric.transfer(nbytes, src, pl.procs[0]),
                        name=f"{pl.task}@{frame.k}",
                    ).add_callback(lambda _done, at=at: gather(frame, pl, at, ready))
                    return
                delay = comm.transfer_time(nbytes, src, pl.procs[0])
                if obs is not None and delay > 0:
                    obs.on_comm(
                        channels, tier_name(cluster, src, pl.procs[0]), pred_end,
                        delay, nbytes=nbytes, timestamp=frame.k,
                    )
                ready = max(ready, pred_end + delay)
            call_at(max(ready, sim.now), acquire, frame, pl, 0)

        def acquire(frame: _Frame, pl: FlatPlacement, held: int) -> None:
            # Step 2.  Take the scheduled processors — an invalid schedule
            # slips here instead of silently double-booking.  All of them at
            # once when all are free (a valid schedule's only case).  Else
            # one at a time in ascending order (which avoids deadlock), a
            # busy one FIFO behind its holder and every grant a heap entry,
            # so that placements contending at one instant interleave grant
            # by grant, as requests to capacity-1 resources would.
            nonlocal slips, max_slip
            if held == 0 and busy.isdisjoint(pl.procs):
                busy.update(pl.procs)
            elif held < len(pl.procs):
                proc = sorted(pl.procs)[held]
                if proc in busy:
                    queued[proc].append((frame, pl, held + 1))
                else:
                    busy.add(proc)
                    call_at(sim.now, acquire, frame, pl, held + 1)
                return
            start = sim.now
            if start > pl.start + _EPS:
                slips += 1
                max_slip = max(max_slip, start - pl.start)
                if obs is not None:
                    obs.on_slip(pl.task, start, start - pl.start, timestamp=frame.k)
            if pl.duration > 0:
                call_at(start + pl.duration, finish, frame, pl, start)
            else:
                finish(frame, pl, start)

        def finish(frame: _Frame, pl: FlatPlacement, start: float) -> None:
            # Step 3.  Execution over: record it and hand each processor to
            # the placement queued behind this one, if any.
            end = sim.now
            record_exec(pl.task, frame.k, pl.procs, start, end, pl.variant)
            for proc in sorted(pl.procs):
                if queued[proc]:
                    call_at(end, acquire, *queued[proc].popleft())
                else:
                    busy.remove(proc)
            settle(frame, pl, end, 0)

        def settle(frame: _Frame, pl: FlatPlacement, end: float, first: int) -> None:
            # Step 4.  Outputs into STM (a full channel holds this up until
            # its next change), inputs consumed, successors resumed.
            full = try_emit(pl.task, frame.k, first)
            if full is not None:
                first, hub = full
                hub.wait_change().add_callback(
                    lambda _changed: settle(frame, pl, end, first)
                )
                return
            retire(pl.task, frame.k, end)
            frame.ends[pl.task] = end
            if len(frame.ends) == n_rows:
                del in_flight[frame.k]
            for waiting in frame.parked.pop(pl.task, ()):
                gather(frame, *waiting)

        launch(0)
        sim.run()
        if in_flight:
            raise SimDeadlock([
                f"{task}@{k}"
                for k, frame in in_flight.items()
                for task, *_row in flat.rows
                if task not in frame.ends
            ])

        return world.result(
            trace.makespan,
            iterations,
            {
                "slips": slips,
                "max_slip": max_slip,
                "period": self.schedule.period,
                "shift": self.schedule.shift,
                "contended_time": fabric.contended_time if fabric else 0.0,
                "transfers": fabric.transfers if fabric else 0,
            },
        )

    def _run_live(self, iterations: int) -> ExecutionResult:
        """Execute on a live substrate and adapt to :class:`ExecutionResult`.

        Live digitize/completion times are wall-clock seconds relative to
        run start, so ``latencies()`` and the uniformity metrics apply
        unchanged — they just measure the real machine instead of the
        cost model.
        """
        if self.runtime == "threaded":
            from repro.runtime.threaded import ThreadedRuntime

            live = ThreadedRuntime(
                self.graph, self.state, static_inputs=self.static_inputs,
                obs=self.obs, analysis=self.analysis,
            )
        else:
            from repro.runtime.process import ProcessRuntime

            live = ProcessRuntime(
                self.graph, self.state, static_inputs=self.static_inputs,
                schedule=self.schedule, cluster=self.cluster,
                obs=self.obs, faults=self.faults,
            )
        res = live.run(iterations)
        trace = TraceRecorder()
        for span in res.spans:
            trace.record_span(span)
        return ExecutionResult(
            graph=self.graph,
            state=self.state,
            trace=trace,
            digitize_times=res.digitize_times,
            completion_times=res.completion_times,
            horizon=res.wall_time,
            emitted=iterations,
            gc_collected=sum(
                s.get("collected", 0) for s in res.channel_stats.values()
            ),
            live_item_high_water=res.meta.get("live_item_high_water", 0),
            meta={
                "substrate": self.runtime,
                "wall_time": res.wall_time,
                "channel_stats": res.channel_stats,
                "outputs": res.outputs,
                "period": self.schedule.period,
                "respawns": res.respawns,
                "kernel_retries": res.kernel_retries,
                **res.meta,
            },
        )
