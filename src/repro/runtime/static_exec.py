"""The static executor: replay and verify a pre-computed pipelined schedule.

The paper implements its optimal schedules "by creating additional
dependencies" so the underlying scheduler "does the right thing"; this
executor is the simulation equivalent.  Nothing is decided while it runs —
the schedule is one fixed pattern repeated every II with rotated
processors (Figure 6 step 3) — so a placement is four plain calls on the
simulator's heap
(:meth:`~repro.sim.engine.Simulator.call_at`), each made by the one before
it: :class:`PlacementReplay`, the one placement body of the schedule-driven
DES executors.  Beside it is their one launch loop, :class:`EpochDriver`:
iteration *j* of an epoch is launched at ``epoch_start + j * II`` — for a
schedule that is never switched, iteration *k* at ``k * II`` — and every one
of its placements

1. **gathers** its predecessors: it parks on one that has not settled, and
   is charged the communication delay between the two primary processors
   from the moment one has (under ``contended=True`` the delay is a
   :meth:`~repro.sim.fabric.LinkFabric.transfer`, which calls it back once
   the data has crossed the shared link);
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
the run — and a finished run frees by reference counting: the body's steps
reach one another and the launch loop re-arms itself, so both are cycles
while the run lasts, and ``EpochDriver.release()`` (called by every
driver's owner once the run is over) drops them with whatever is left on
the heap and detaches every STM connection (a channel and its connections
point at each other), so no cycle holds the world or its trace.  Any positive
difference between the actual and scheduled start is recorded as a
*slip*; a correct schedule executes with zero slips, and tests assert this
for every schedule the optimizers produce.  A run whose heap drains with
placements still parked raises :class:`~repro.errors.SimDeadlock` naming
them ``<task>@<iteration>``.

A schedule switch — whatever caused it — is an *epoch* on that loop, and a
failure is an event on that body (``lose(frame, cause)``), not a second
one: :class:`~repro.faults.runner.FaultTolerantExecutor` is the driver plus
injector and detector, :func:`~repro.experiments.regime.run_regime` the
driver fed a trace of state changes, :meth:`StaticExecutor.run` the driver
over a controller that never switches.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Optional, Union

from repro.errors import ExecutorConfigError, SimDeadlock
from repro.core.schedule import PipelinedSchedule, ScheduleSolution
from repro.core.table import RegimeController, SwitchRecord
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import FlatPlacement, FlatSchedule, build_task_plans
from repro.runtime.hub import SimWorld, build_hubs
from repro.runtime.process import ProcessRuntime
from repro.runtime.result import ExecutionResult
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.network import CommModel, tier_name
from repro.sim.trace import Mark, TraceRecorder
from repro.state import State

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids an import cycle)
    from repro.obs import Observability
    from repro.sim.fabric import LinkFabric

__all__ = ["StaticExecutor", "EpochDriver"]

_EPS = 1e-9


#: How long a fault run's placement waits at a full channel before its frame
#: is lost as ``stm-timeout``: a consumer that died never frees the slot.
PUT_WAIT = 1.55


class _Frame:
    """One iteration in flight: its rows by task, the end time of each
    placement that has settled, the placements parked on one that has not,
    the start time of each one executing — and, under faults, whether it is
    a second attempt at its timestamp and whether it has been lost."""

    __slots__ = ("ts", "rows", "ends", "parked", "running", "second", "lost")

    def __init__(self, ts: int, rows: list[FlatPlacement], second: bool) -> None:
        self.ts = ts
        self.rows = {pl.task: pl for pl in rows}
        self.ends: dict[str, float] = {}
        # predecessor -> [(placement, index of the edge it waits at, ready)]
        self.parked: dict[str, list[tuple[FlatPlacement, int, float]]] = {}
        self.running: dict[str, float] = {}
        self.second = second
        self.lost = False


class PlacementReplay:
    """The one placement body of the schedule-driven DES executors.

    ``start(ts, rows)`` puts one iteration in flight — ``rows`` are its
    absolute :class:`~repro.runtime.dispatch.FlatPlacement` rows — and every
    placement then runs the four calls of the module notes (gather →
    acquire → finish → settle) on ``world.sim``'s heap.  ``in_flight`` maps
    the timestamp of each unfinished iteration to its :class:`_Frame`;
    ``slips`` / ``max_slip`` count late starts.

    A fault run hands over two more things, and with them a failure is an
    event on this body, not a second body:

    ``dead``
        The live set of dead processors.  A placement whose processors are
        not all alive when it would start loses its frame as a ``"crash"``.
    ``on_loss(ts, cause)``
        Told of every lost frame; its presence also bounds the wait at a
        full channel by :data:`PUT_WAIT` (``"stm-timeout"``).

    ``lose(frame, cause)`` is the one way a frame is lost: it leaves
    ``in_flight`` at once, whatever it is executing is recorded as
    pre-empted and those processors pass on, and its remaining heap entries
    fire as no-ops (each step checks ``frame.lost`` on entry and hands back
    the processors it was granted meanwhile).  ``start(..., second=True)``
    begins a second attempt at a timestamp (a checkpoint replay): its
    settle skips the outputs STM still holds from the first.
    ``preempt_dead()`` loses every frame that is executing on a dead
    processor — the fault runner calls it one heap entry after a kill, so
    that a placement finishing at the kill instant has finished.
    """

    def __init__(
        self,
        world: SimWorld,
        comm: CommModel,
        fabric: Optional["LinkFabric"] = None,
        dead: AbstractSet[int] = frozenset(),
        on_loss: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        sim, cluster, trace = world.sim, world.cluster, world.trace
        call_at = sim.call_at
        edges = world.edges
        record_exec, try_emit, retire = world.record_exec, world.try_emit, world.retire

        # Capacity-1 processors: held by one placement, FIFO behind it.
        busy: set[int] = set()
        queued: dict[int, deque] = {p.index: deque() for p in cluster.processors}
        self.in_flight = in_flight = {}
        self.slips = 0
        self.max_slip = 0.0

        # Each distinct transfer is priced once a run: its delay and, for a
        # delay that is charged, the tier its comm mark names.  Without a
        # fabric, a model that is free on every tier charges nothing and
        # marks nothing, so its transfers are not looked up at all.
        prices: dict[tuple[int, int, int], tuple[float, str]] = {}
        free = fabric is None and comm.is_free

        def start(ts: int, rows: list[FlatPlacement], second: bool = False) -> None:
            # What gather() would do with a frame where nothing has settled:
            # a placement with inputs parks on its first, one without is
            # ready at its scheduled start.
            in_flight[ts] = frame = _Frame(ts, rows, second)
            parked, now = frame.parked, sim.now
            for pl in rows:
                incoming = edges[pl.task]
                if incoming:
                    parked.setdefault(incoming[0][0], []).append((pl, 0, pl.start))
                else:
                    call_at(max(pl.start, now), acquire, frame, pl, 0)

        def gather(frame: _Frame, pl: FlatPlacement, at: int, ready: float) -> None:
            # Step 1.  Walk the incoming edges from ``at``: park on a
            # predecessor that has not settled (its settle() resumes here),
            # charge the transfer from one that has.  A transfer begins the
            # moment the predecessor finishes, overlapping any slack before
            # the scheduled start.  (Only ever entered for a live frame.)
            incoming = edges[pl.task]
            while at < len(incoming):
                pred, nbytes, channels = incoming[at]
                pred_end = frame.ends.get(pred)
                if pred_end is None:
                    frame.parked.setdefault(pred, []).append((pl, at, ready))
                    return
                at += 1
                if free:
                    ready = max(ready, pred_end)
                    continue
                src, dst = frame.rows[pred].procs[0], pl.procs[0]
                if fabric is not None:
                    # Contended mode: fetch the input over the shared links
                    # (sequentially — a task pulls its inputs one by one).
                    fabric.transfer(
                        nbytes, src, dst, lambda at=at: gather(frame, pl, at, ready)
                    )
                    return
                priced = prices.get((nbytes, src, dst))
                if priced is None:
                    delay = comm.transfer_time(nbytes, src, dst)
                    priced = prices[nbytes, src, dst] = (
                        delay, tier_name(cluster, src, dst) if delay > 0 else "")
                delay, tier = priced
                if delay > 0:
                    trace.record_mark(Mark.comm(
                        channels, tier, pred_end, pred_end + delay, nbytes, frame.ts,
                    ))
                ready = max(ready, pred_end + delay)
            call_at(max(ready, sim.now), acquire, frame, pl, 0)

        def release(procs) -> None:
            # Hand each processor to the placement queued behind, if any,
            # in ascending order (a single processor needs no sort).
            now = sim.now
            for proc in procs if len(procs) == 1 else sorted(procs):
                if queued[proc]:
                    call_at(now, acquire, *queued[proc].popleft())
                else:
                    busy.remove(proc)

        def acquire(frame: _Frame, pl: FlatPlacement, held: int) -> None:
            # Step 2.  Take the scheduled processors — an invalid schedule
            # slips here instead of silently double-booking.  All of them at
            # once when all are free (a valid schedule's only case).  Else
            # one at a time in ascending order (which avoids deadlock), a
            # busy one FIFO behind its holder and every grant a heap entry,
            # so that placements contending at one instant interleave grant
            # by grant, as requests to capacity-1 resources would.
            if frame.lost:
                release(sorted(pl.procs)[:held])
                return
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
            if dead and not dead.isdisjoint(pl.procs):
                release(pl.procs)
                lose(frame, "crash")
                return
            start = sim.now
            if start > pl.start + _EPS:
                self.slips += 1
                self.max_slip = max(self.max_slip, start - pl.start)
                trace.record_mark(Mark.slip(pl.task, start, start - pl.start, frame.ts))
            if pl.duration > 0:
                frame.running[pl.task] = start
                call_at(start + pl.duration, finish, frame, pl, start)
            else:
                finish(frame, pl, start)

        def finish(frame: _Frame, pl: FlatPlacement, start: float) -> None:
            # Step 3.  Execution over: record it and pass the processors on.
            if frame.lost:
                return
            end = sim.now
            frame.running.pop(pl.task, None)
            record_exec(pl.task, frame.ts, pl.procs, start, end, pl.variant)
            release(pl.procs)
            settle(frame, pl, end, 0)

        def settle(
            frame: _Frame, pl: FlatPlacement, end: float, first: int, waited: bool = False
        ) -> None:
            # Step 4.  Outputs into STM (a full channel holds this up until
            # its next change), inputs consumed, successors resumed.
            if frame.lost:
                return
            full = try_emit(pl.task, frame.ts, first, frame.second)
            if full is not None:
                first, hub = full
                if on_loss is not None and not waited:
                    call_at(sim.now + PUT_WAIT, give_up, frame, pl)
                hub.wait_change().add_callback(
                    lambda _changed: settle(frame, pl, end, first, True)
                )
                return
            retire(pl.task, frame.ts, end)
            frame.ends[pl.task] = end
            if len(frame.ends) == len(frame.rows):
                del in_flight[frame.ts]
            for waiting in frame.parked.pop(pl.task, ()):
                gather(frame, *waiting)

        def give_up(frame: _Frame, pl: FlatPlacement) -> None:
            if not frame.lost and pl.task not in frame.ends:
                lose(frame, "stm-timeout")

        def lose(frame: _Frame, cause: str) -> None:
            frame.lost = True
            del in_flight[frame.ts]
            for task, start in frame.running.items():
                pl = frame.rows[task]
                record_exec(
                    task, frame.ts, pl.procs, start, sim.now, pl.variant, preempted=True
                )
                release(pl.procs)
            on_loss(frame.ts, cause)

        def preempt_dead() -> None:
            # What executes on a processor that has died goes with its frame.
            for frame in list(in_flight.values()):
                if any(
                    not dead.isdisjoint(frame.rows[task].procs)
                    for task in frame.running
                ):
                    lose(frame, "crash")

        def close() -> None:
            # The run is over.  The steps reach one another through these
            # names, and acquire reaches this body: with them dropped
            # nothing here is cyclic, and the world and its trace are freed
            # by reference counting once the result is dropped.
            nonlocal gather, release, acquire, finish, settle, give_up, lose
            gather = release = acquire = finish = settle = give_up = lose = None

        self.start, self.lose, self.preempt_dead = start, lose, preempt_dead
        self.close = close


class EpochDriver:
    """The one launch loop of the schedule-driven DES executors.

    A run proceeds in *epochs*: within one, iteration *j* of the
    controller's active schedule is started at ``epoch_start + j * II``
    through :class:`PlacementReplay`; when the controller has switched, a
    new epoch begins at ``max(now, controller.resume_at)`` — the schedule
    is lowered again (:class:`~repro.runtime.dispatch.FlatSchedule`, once
    per epoch), the world is told the new state
    (:meth:`~repro.runtime.hub.SimWorld.enter`) and ``j`` counts from zero.
    The loop is a plain call on the heap that re-arms itself at the next
    slot, so a controller that never switches launches frame *k* at exactly
    ``k * II``: that is :meth:`StaticExecutor.run`.  What makes a
    controller switch is not the driver's business — a failure detection
    (:class:`~repro.faults.runner.FaultTolerantExecutor`), an observed
    state change put on the heap with :meth:`at`
    (:func:`~repro.experiments.regime.run_regime`) — but every cause hands
    its :class:`~repro.core.table.SwitchRecord` to ``switched``, the one
    place the transition policy's verdict is applied to the frames
    *actually* in flight: an immediate transition loses them
    (``"transition"``), a checkpoint loses them as ``"replayed"`` and their
    timestamps are started again, as second attempts, before any new one.

    The constructor builds the world (simulator, trace, STM wiring, frame
    ledger); :meth:`start` arms the loop over a controller and provides
    ``switched(record)`` (a None record — the cause switched nothing — is
    ignored) and ``release()``, which ends the run: it drops the loop, the
    controller, the placement body's steps and what is left on the heap,
    so that dropping the result frees the trace by reference counting.
    A run ends after ``iterations`` frames or when the next slot would
    fall at or after ``horizon``; ``done`` turns true once nothing is
    left to start.  ``dead`` and ``on_loss`` are :class:`PlacementReplay`'s.
    With a loss sink a lost frame may come back, so the loop keeps polling,
    one interval at a time, while anything is in flight; without one it
    ends with the last launch and a run that cannot finish drains the heap
    (the static executor's :class:`~repro.errors.SimDeadlock`).
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        comm: CommModel,
        obs: Optional["Observability"] = None,
        contended: bool = False,
    ) -> None:
        self.sim = sim = Simulator()
        self.trace = trace = TraceRecorder()
        self.world = SimWorld(
            graph, state, cluster, sim, trace,
            build_hubs(sim, graph, trace), build_task_plans(graph), obs,
        )
        self.comm = comm
        self.fabric = None
        if contended:
            from repro.sim.fabric import LinkFabric

            self.fabric = LinkFabric(sim, cluster, comm)
        self.epochs: list[tuple[float, int, State]] = []
        self.launched = 0
        self.done = False

    def start(
        self,
        controller: RegimeController,
        iterations: float = math.inf,
        horizon: float = math.inf,
        dead: AbstractSet[int] = frozenset(),
        on_loss: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        """Arm the launch loop over ``controller`` at the current instant."""
        sim, world, obs = self.sim, self.world, self.world.obs
        call_at = sim.call_at
        self.replay = replay = PlacementReplay(
            world, self.comm, self.fabric, dead, on_loss
        )
        in_flight = replay.in_flight
        # Timestamps lost as "replayed": each is started again, as a second
        # attempt, before any new one.
        replay_q: deque[int] = deque()
        # Shape -> physical processors, when the controller has a mapping.
        physical = getattr(controller, "physical_procs", None)
        if obs is not None:
            obs.on_period(controller.active.period)
        seen = j = 0
        epoch_start = 0.0
        # Flat dispatch tables: schedule lookups and channel classification
        # compiled once an epoch, outside the per-iteration loop.
        flat = FlatSchedule(controller.active.pipelined)

        def tick() -> None:
            nonlocal seen, j, epoch_start, flat
            while True:
                if controller.switch_count != seen:
                    seen = controller.switch_count
                    epoch_start = max(sim.now, controller.resume_at)
                    j = 0
                    flat = FlatSchedule(controller.active.pipelined)
                slot = epoch_start + j * flat.period
                more = self.launched < iterations and slot < horizon
                if not (more or replay_q or (on_loss is not None and in_flight)):
                    self.done = True
                    return
                if sim.now < controller.resume_at - _EPS:
                    return call_at(controller.resume_at, tick)
                if not more and not replay_q:
                    # Nothing to launch; idle one interval in case a late
                    # switch re-queues frames in flight.
                    return call_at(sim.now + flat.period, tick)
                if sim.now < slot - _EPS:
                    return call_at(slot, tick)
                again = bool(replay_q)
                if again:
                    ts = replay_q.popleft()
                else:
                    ts = self.launched
                    self.launched += 1
                # Iteration j: same pattern, rotated processors (Figure 6
                # step 3), moved onto the survivors and the epoch's clock.
                rows = flat.instantiate(j)
                if physical is not None:
                    for pl in rows:
                        pl.procs = physical(pl.procs)
                if epoch_start:
                    for pl in rows:
                        pl.start += epoch_start
                if j == 0:
                    state = controller.active.state
                    if state != world.state:
                        world.enter(state)
                    self.epochs.append((epoch_start, ts, state))
                replay.start(ts, rows, again)
                j += 1

        def switched(record: Optional[SwitchRecord]) -> None:
            if record is None:
                return
            if obs is not None:
                obs.on_period(controller.active.period)
            effect = record.effect
            again = effect.replayed_iterations > 0
            if again or effect.lost_iterations > 0:
                for frame in list(in_flight.values()):
                    if again:
                        replay_q.append(frame.ts)
                    replay.lose(frame, "replayed" if again else "transition")

        def release() -> None:
            # The run is over: drop the loop (it re-arms itself, so it
            # reaches itself), the controller (a fault run's reaches this
            # driver through the cluster view's listeners), the body's
            # steps, whatever is still on the heap (heartbeats never stop)
            # and every STM connection (a channel and its connections
            # point at each other).
            nonlocal tick, controller
            tick = controller = None
            replay.close()
            sim._heap.clear()
            for hub in world.hubs.values():
                for conn in hub.stm.connections:
                    hub.stm.detach(conn)

        self.switched, self.release = switched, release
        call_at(sim.now, tick)

    def at(self, time: float, cause: Callable[..., Optional[SwitchRecord]], *args: Any) -> None:
        """Put a cause of change on the heap: ``cause(*args)`` runs at
        ``time`` and its switch record, if it made one, is acted on."""
        self.sim.call_at(time, lambda: self.switched(cause(*args)))

    def result(self, meta: dict) -> ExecutionResult:
        """The run so far as an :class:`ExecutionResult`: ``meta`` plus the
        slip counts and one ``(start, first timestamp, state)`` per epoch."""
        return self.world.result(
            self.trace.makespan,
            self.launched,
            {
                **meta,
                "slips": self.replay.slips,
                "max_slip": self.replay.max_slip,
                "epochs": self.epochs,
            },
        )


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
    obs:
        Optional :class:`~repro.obs.Observability` bundle, subscribed to
        the run's trace on every substrate: every placement execution,
        STM operation, inter-placement transfer and slip the run records
        reaches its metrics — and, if the bundle carries a calibrator,
        cost-model drift detection — and every completed frame is
        reported.
    runtime:
        Which substrate executes the schedule: ``"sim"`` (default, the
        discrete-event simulation above), ``"threaded"`` (real kernels on
        Python threads) or ``"process"`` (real kernels on one worker
        process per scheduled cluster node — genuine parallelism).  The
        live substrates need ``compute`` kernels on the tasks and return
        the runtime's own result: wall-clock digitize/completion times,
        the terminal channels' items in ``meta["outputs"]``, plus
        ``meta["period"]``.
    static_inputs:
        Values for static configuration channels, required by the live
        substrates (e.g. ``{"color_model": models}``); the simulation
        substrate fills statics with a stub and ignores this.

    A simulated fault run (§3.4: failures as regime changes over a table
    of per-shape schedules) is
    :class:`~repro.faults.runner.FaultTolerantExecutor`.  The static
    analyzer (:mod:`repro.analysis`) runs over these inputs directly.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        cluster: ClusterSpec,
        schedule: Union[PipelinedSchedule, ScheduleSolution],
        comm: Optional[CommModel] = None,
        contended: bool = False,
        obs: Optional["Observability"] = None,
        runtime: str = "sim",
        static_inputs: Optional[dict] = None,
    ) -> None:
        graph.validate()
        if runtime not in ("sim", "threaded", "process"):
            raise ExecutorConfigError(
                f"unknown runtime {runtime!r}; pick sim, threaded or process"
            )
        if runtime != "sim" and contended:
            raise ExecutorConfigError(
                "contended transfers exist only on the sim substrate"
            )
        if isinstance(schedule, ScheduleSolution):
            solution, schedule = schedule, schedule.pipelined
        else:
            # A bare PipelinedSchedule carries no provenance; wrap it so a
            # controller can hold it all the same.
            solution = ScheduleSolution(
                state=state,
                iteration=schedule.iteration,
                pipelined=schedule,
                alternatives=0,
                explored=0,
            )
        if schedule.n_procs > cluster.total_processors:
            raise ExecutorConfigError(
                f"schedule needs {schedule.n_procs} processors, cluster has "
                f"{cluster.total_processors}"
            )
        self.graph = graph
        self.state = state
        self.cluster = cluster
        self.schedule = schedule
        self.solution = solution
        self.comm = comm or CommModel.free(cluster)
        self.contended = contended
        self.obs = obs
        self.runtime = runtime
        self.static_inputs = dict(static_inputs or {})

    def run(self, iterations: int) -> ExecutionResult:
        """Execute ``iterations`` timestamps and drain."""
        if iterations < 1:
            raise ExecutorConfigError(f"iterations must be >= 1, got {iterations}")
        if self.runtime != "sim":
            return self._run_live(iterations)
        # The epoch driver over a controller that is never switched.
        driver = EpochDriver(
            self.graph, self.state, self.cluster, self.comm, self.obs, self.contended
        )
        driver.start(RegimeController(self.solution), iterations)
        driver.sim.run()
        driver.release()
        if driver.replay.in_flight:
            raise SimDeadlock([
                f"{task}@{k}"
                for k, frame in driver.replay.in_flight.items()
                for task in frame.rows
                if task not in frame.ends
            ])
        fabric = driver.fabric
        return driver.result({
            "period": self.schedule.period,
            "shift": self.schedule.shift,
            "contended_time": fabric.contended_time if fabric else 0.0,
            "transfers": fabric.transfers if fabric else 0,
        })

    def _run_live(self, iterations: int) -> ExecutionResult:
        """Execute on the live substrate: its runtime's result, plus the
        schedule's ``period``."""
        if self.runtime == "threaded":
            live = ThreadedRuntime(
                self.graph, self.state, static_inputs=self.static_inputs,
                schedule=self.schedule, obs=self.obs,
            )
        else:
            live = ProcessRuntime(
                self.graph, self.state, static_inputs=self.static_inputs,
                schedule=self.schedule, cluster=self.cluster,
                obs=self.obs,
            )
        result = live.run(iterations)
        result.meta["period"] = self.schedule.period
        return result
