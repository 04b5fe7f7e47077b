"""The process-parallel runtime: one worker process per scheduled node.

The threaded runtime proves the programming model but serializes every
CPU-bound kernel behind the GIL, so a data-parallel schedule can never
show real wall-clock speedup.  :class:`ProcessRuntime` is the missing
rung between the simulator and real hardware:

* every scheduled cluster *node* becomes a worker ``multiprocessing``
  process (fork-based);
* each worker is one :class:`~repro.runtime.live.LiveNode` — the body a
  threaded run is the one-node case of: its node's tasks in *lanes*, one
  thread per processor the schedule puts them on (one per task under an
  explicit ``placement``), each through the one lane body.  The parent
  builds the node (channels made, connections attached) and the worker
  inherits it through the fork; the worker adds only what is its own: its
  :class:`~repro.stm.process.WorkerLink` and the kernel invocation with
  its injected faults;
* STM follows the schedule's node boundaries — the paper's intra- versus
  inter-node communication distinction (Figure 6).  A streaming channel
  whose every producer and consumer is scheduled on one node is a
  :class:`~repro.stm.threaded.ThreadedChannel` inside that node's
  process, and so is a terminal channel whose producers all are: its
  collector (a sink task) counts as one more end, placed on its
  producers' node.  Only the edges that cross nodes (and the static
  channels, which the parent fills) are hosted by the parent's
  :class:`~repro.stm.process.ChannelBroker` (shared-memory transport for
  array payloads, pickle otherwise), where a placement's boundary traffic
  for a frame is one :class:`~repro.stm.process.StepBatch` step — the
  broker's one op.  A one-node schedule therefore crosses the broker
  only for its static reads, never per frame, and a task with no
  boundary channel never.  What the parent can then no longer read off
  the broker — the node-local channels' counters and GC totals, the
  digitize stamps, its trace records, what its collectors drained — is
  the node's :class:`~repro.runtime.live.NodeReport`, which rides each
  worker's ``done`` message into :func:`~repro.runtime.live.
  merge_reports`, beside the broker's own counters as one more report.
  A worker that exits cleanly without that report fails the run;
* the parent drains the terminal channels left at the broker with one
  more node, with no tasks: a collector is a sink task, through the same
  node body, whose boundary ends reach the broker over a
  :class:`~repro.stm.process.LocalLink` — the same step, served inline
  under the broker lock and counted as ``local_step``, not as a queue
  round trip.  It runs while the parent watches the workers, and a
  collector that fails reports ``fatal`` like any task thread, so the run
  fails at once;
* a task placed with a data-parallel variant (``dp4``) runs its chunks in
  the four lanes it occupies, the node body's one data-parallel path
  (:mod:`repro.runtime.live`), as on threads — which is why S004's
  condition, a placement spanning nodes, is refused before any fork;
* the run has one :class:`~repro.sim.trace.TraceRecorder`, in the
  parent, that ``obs=`` listens to: boundary traffic is recorded at the
  broker as it happens; each worker records its kernel spans (and, when
  observed, its node-local traffic) into a trace of its own, on the same
  clock, whose raw records the parent replays into the run's at join;
* ``faults=`` injection keeps working: a :class:`ProcessFaultPlan` can
  make a kernel raise (covered by bounded in-worker retries) or kill a
  whole worker mid-run — on a data-parallel task at its primary lane,
  before the inputs are handed out, so a retry re-runs the whole
  placement — the parent detects the death through the
  process sentinel, respawns the node, and the tasks resume from the
  timestamps recorded in STM (puts replay idempotently; a lane skips a
  task until its own resume frame), which is §3.4's
  "failures as detectable regime changes" on a live substrate.  Resume
  points are read from STM that outlives the worker, so a run that may
  respawn (``max_respawns > 0``) keeps *every* channel at the broker —
  the one case where locality is not a function of the schedule
  (:meth:`ProcessRuntime._node_local_channels`), and the one case where
  the parent collects every terminal channel, so its outputs outlive a
  worker too.  What a dead worker had
  not shipped dies with it: its kernel spans and the digitize stamps of
  the frames its sources emitted;
* a failure that is not recovered ends the run at once, not after
  ``op_timeout``: a lane thread that raises reports to the parent
  immediately and poisons its node's own channels (the node body does
  both), the parent poisons the broker's, and every blocked sibling — on
  a node-local channel or parked on a step from another node — wakes
  with :class:`~repro.stm.threaded.ChannelPoisoned`.
"""

from __future__ import annotations

import os
import threading
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.schedule import PipelinedSchedule
from repro.errors import ReproError
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    COLLECTOR,
    LiveNode,
    NodeReport,
    check_static_inputs,
    check_timestamps,
    merge_reports,
    schedule_slots,
    terminal_channels,
)
from repro.runtime.result import ExecutionResult
from repro.sim.trace import Mark, TraceRecorder
from repro.state import State
from repro.stm.process import ChannelBroker, WorkerLink

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.schedule import ScheduleSolution
    from repro.obs import Observability
    from repro.sim.cluster import ClusterSpec

__all__ = [
    "KernelFault",
    "ProcessFaultPlan",
    "ProcessRuntime",
]


# ---------------------------------------------------------------------------
# Fault plan (live-substrate flavour of repro.faults)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFault:
    """One injected failure: ``task``'s kernel at frame ``timestamp``.

    ``kind="error"`` makes the kernel raise (absorbed by in-worker
    retries when the plan allows them); ``kind="exit"`` kills the whole
    worker process — the live equivalent of a node crash.
    """

    task: str
    timestamp: int
    kind: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "exit"):
            raise ReproError(f"unknown kernel fault kind {self.kind!r}")
        if self.timestamp < 0:
            raise ReproError(f"fault timestamp must be >= 0, got {self.timestamp}")


@dataclass
class ProcessFaultPlan:
    """Deterministic failure script for a :class:`ProcessRuntime` run.

    Attributes
    ----------
    events:
        The injected :class:`KernelFault` records (each fires once).
    kernel_retries:
        In-worker retry budget per kernel invocation; an ``"error"``
        fault survived by a retry costs one attempt and the frame still
        completes.
    max_respawns:
        How many worker deaths the parent will repair by respawning the
        node and resuming its tasks from STM state.
    """

    events: tuple = ()
    kernel_retries: int = 1
    max_respawns: int = 2

    def __post_init__(self) -> None:
        self.events = tuple(self.events)
        if self.kernel_retries < 0 or self.max_respawns < 0:
            raise ReproError("retry/respawn budgets must be >= 0")

    def events_for(self, tasks) -> list[KernelFault]:
        names = set(tasks)
        return [e for e in self.events if e.task in names]


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _fail_stop(requests) -> None:
    """Die with exit code 13, releasing shared IPC locks first.

    The broker's request queue is a single ``mp.Queue`` shared by every
    producer; its write side is guarded by a semaphore that lives in
    shared memory.  ``os._exit`` at an arbitrary instant can kill the
    process while its queue feeder thread holds that semaphore mid-write,
    which wedges every other producer — sibling and respawned workers
    alike — until the runtime's hard deadline.  Closing and
    joining the feeder flushes in-flight writes and releases the lock, so
    the injected failure is a clean fail-stop at a kernel boundary.
    """
    try:
        requests.close()
        requests.join_thread()
    except Exception:  # pragma: no cover - queue already torn down
        pass
    os._exit(13)


def _worker_main(node: LiveNode, worker_id: int, requests, replies,
                 fault_events: list[KernelFault], kernel_retries: int) -> None:
    """Entry point of one node worker (runs in the forked child).

    ``node`` was built in the parent — channels made, connections attached
    — and is inherited through the fork, never pickled.  The worker adds
    its link to the broker and the injected faults: ``invoke_kernel``
    wraps each placement its lanes run, a data-parallel one whole.
    """
    link = WorkerLink(worker_id, requests, replies)
    link.start()
    fired: set[tuple[str, int]] = set()
    retry_lock = threading.Lock()  # lane threads retry concurrently

    def invoke_kernel(task: Task, run, inputs: dict, ts: int) -> dict:
        """One (task, timestamp) placement, its injected fault first."""
        fault = next((e for e in fault_events
                      if e.task == task.name and e.timestamp == ts), None)
        for attempt in range(kernel_retries + 1):
            try:
                if fault is not None and (task.name, ts) not in fired:
                    fired.add((task.name, ts))
                    if fault.kind == "exit":
                        _fail_stop(requests)
                    raise ReproError(
                        f"injected kernel fault: {task.name} at ts={ts}"
                    )
                return run(inputs, ts)
            except ReproError:
                if attempt == kernel_retries:
                    raise
                with retry_lock:
                    node.kernel_retries += 1
        raise AssertionError("unreachable")  # pragma: no cover

    try:
        report = node.run(link, invoke_kernel)
    except BaseException:  # noqa: BLE001 - a task's error went out as "fatal"
        report = None  # and exit code 1 reports the worker's failure
    if report is not None:
        # What the parent can no longer read off the broker rides here.
        link.notify("done", report)
    link.stop()
    # Flush the queue's feeder thread so the final message survives the
    # hard exit (os._exit skips atexit handlers, including queue joins).
    requests.close()
    requests.join_thread()
    os._exit(0 if report is not None else 1)


# ---------------------------------------------------------------------------
# Parent-side runtime
# ---------------------------------------------------------------------------


class ProcessRuntime:
    """Run a task graph with worker processes — real parallel execution.

    Parameters
    ----------
    graph / state / static_inputs / op_timeout / obs:
        As for :class:`~repro.runtime.threaded.ThreadedRuntime`.
    schedule:
        Optional :class:`~repro.core.schedule.PipelinedSchedule` (or full
        :class:`~repro.core.schedule.ScheduleSolution`).  Placements
        determine the task-to-node mapping and each node's lanes, a
        data-parallel placement in each lane it occupies
        (:func:`~repro.runtime.live.schedule_slots`, which refuses one that
        spans nodes); requires ``cluster``.
    cluster:
        The :class:`~repro.sim.cluster.ClusterSpec` whose nodes the
        schedule refers to.
    placement:
        Explicit ``{task: node}`` mapping (overrides ``schedule``; every
        task its own lane).  With neither, every task runs on node 0 (one
        worker, still a separate process from the parent).
    faults:
        Optional :class:`ProcessFaultPlan`.

    Workers are forked: each inherits its node, kernels and closures
    included, and nothing is pickled, so a platform without ``fork``
    raises :class:`~repro.errors.ReproError` at :meth:`run`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        state: State,
        static_inputs: Optional[dict[str, Any]] = None,
        schedule: Optional[Union[PipelinedSchedule, "ScheduleSolution"]] = None,
        cluster: Optional["ClusterSpec"] = None,
        placement: Optional[dict[str, int]] = None,
        op_timeout: float = 60.0,
        obs: Optional["Observability"] = None,
        faults: Optional[ProcessFaultPlan] = None,
    ) -> None:
        graph.validate()
        if schedule is not None and cluster is None and placement is None:
            raise ReproError("a schedule-driven ProcessRuntime needs cluster=")
        self.graph = graph
        self.state = state
        self.static_inputs = dict(static_inputs or {})
        self.cluster = cluster
        self.op_timeout = op_timeout
        self.obs = obs
        self.faults = faults
        check_static_inputs(graph, self.static_inputs)
        #: the schedule's reading (None under an explicit placement)
        self.slots = (schedule_slots(graph, schedule, cluster)
                      if schedule is not None and placement is None else None)
        if placement is not None:
            self.assignment = dict(placement)
        else:
            self.assignment = {t.name: self.slots[t.name].node if self.slots else 0
                               for t in graph.tasks}

    def _node_local_channels(self) -> dict[int, dict[str, Optional[int]]]:
        """``{node: {channel: capacity}}`` of the channels that stay in a worker.

        A streaming channel is *node-local* when all its ends are assigned
        to one node; it then lives in that node's process as a
        ``ThreadedChannel``.  A terminal channel's collector is one of its
        ends, placed on its producers' node: a terminal channel whose
        producers share a node is collected there.  Everything else — a
        channel whose ends sit on different nodes, a static channel (the
        parent fills it) — is a *boundary* channel, hosted by the broker.

        Locality is a function of the schedule, with one exception decided
        here: recovery by respawn reads its resume points from STM that
        outlives the worker, so a run that may respawn keeps every channel
        at the broker.
        """
        local: dict[int, dict[str, Optional[int]]] = {}
        if self.faults is not None and self.faults.max_respawns > 0:
            return local
        for spec in self.graph.channels:
            ends = (self.graph.consumers(spec.name)
                    + self.graph.producers(spec.name))
            if spec.static or not ends:
                continue
            nodes = {self.assignment[t.name] for t in ends}
            if len(nodes) == 1:
                local.setdefault(nodes.pop(), {})[spec.name] = spec.capacity
        return local

    # -- execution ----------------------------------------------------------

    def run(self, timestamps: int) -> ExecutionResult:
        """Process ``timestamps`` frames in order across the worker fleet."""
        import multiprocessing

        from multiprocessing.connection import wait as _wait

        check_timestamps(timestamps)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - exotic platform
            raise ReproError(f"the process runtime needs fork: {exc}") from None

        # The broker carries only the edges that cross nodes (and what the
        # parent itself fills or drains); intra-node STM stays in the worker.
        local_by_node = self._node_local_channels()
        node_local = {ch for chans in local_by_node.values() for ch in chans}
        broker = ChannelBroker(
            {spec.name: spec.capacity for spec in self.graph.channels
             if spec.name not in node_local}
        )
        #: each task's boundary channels: {task: {channel: broker conn id}}
        remote = {
            t.name: {
                **{ch: broker.attach_input(ch, t.name)
                   for ch in t.inputs if ch not in node_local},
                **{ch: broker.attach_output(ch, t.name)
                   for ch in t.outputs if ch not in node_local},
            }
            for t in self.graph.tasks
        }
        plans = build_task_plans(self.graph)
        terminal = terminal_channels(self.graph)
        # A terminal channel at the broker is drained by the parent; a
        # node-local one by its producers' worker.
        remote[COLLECTOR] = {ch: broker.attach_input(ch, COLLECTOR)
                             for ch in terminal if ch not in node_local}
        for name, value in self.static_inputs.items():
            broker.put_static(name, value)
        trace = TraceRecorder()
        if self.obs is not None:
            trace.subscribe(self.obs.on_record)
            broker.record_into(trace)

        nodes = sorted(set(self.assignment.values()))
        tasks_by_node = {
            n: [t for t in self.graph.tasks if self.assignment[t.name] == n]
            for n in nodes
        }
        kernel_retries = self.faults.kernel_retries if self.faults else 0
        # Exit faults a dead worker already executed.  A respawned worker
        # must not see them again: it would re-run the fatal frame, hit the
        # same injected exit, and crash-loop until the respawn budget
        # drained.  Local to this run — the caller's plan is never edited.
        fired_exits: set[KernelFault] = set()

        def pending_faults(node_tasks) -> list[KernelFault]:
            if self.faults is None:
                return []
            return [e for e in self.faults.events_for(t.name for t in node_tasks)
                    if e not in fired_exits]

        next_worker_id = 1
        workers: dict[int, tuple[Any, int]] = {}  # worker_id -> (Process, node)

        def spawn(node: int, name: str,
                  resume: Optional[dict[str, int]] = None) -> None:
            """Fork one worker for ``node`` (a respawn when given ``resume``);
            its LiveNode is built here, channels made and connections
            attached, and inherited by the child."""
            nonlocal next_worker_id
            worker_id, next_worker_id = next_worker_id, next_worker_id + 1
            node_tasks = tasks_by_node[node]
            local = local_by_node.get(node, {})
            live = LiveNode(
                node_tasks, plans, local, self.state,
                timestamps, self.op_timeout, remote=remote,
                collect=tuple(ch for ch in terminal if ch in local),
                resume=resume, slots=self.slots, t0=broker._t0,
                observe=self.obs is not None,
            )
            proc = ctx.Process(
                target=_worker_main, name=name, daemon=True,
                args=(live, worker_id, broker.requests,
                      broker.register_worker(worker_id),
                      pending_faults(node_tasks), kernel_retries),
            )
            proc.start()
            workers[worker_id] = (proc, node)

        broker.start()
        for node in nodes:
            spawn(node, f"node{node}")

        #: the parent's own node: no tasks, the broker's terminal channels
        drain = LiveNode([], plans, {}, self.state, timestamps, self.op_timeout,
                         remote=remote, collect=tuple(remote[COLLECTOR]),
                         t0=broker._t0)
        drain.start(broker.local_link())

        respawns = 0
        completed_ok: dict[int, int] = {}  # worker_id -> node, exit code 0
        respawn_budget = self.faults.max_respawns if self.faults else 0
        hard_deadline = _time.monotonic() + self.op_timeout * (timestamps + 4)
        failed: Optional[str] = None
        try:
            while workers:
                if broker.errors:
                    failed = broker.errors[0]
                    break
                if _time.monotonic() > hard_deadline:
                    failed = "worker processes did not finish in time"
                    break
                sentinels = {w.sentinel: wid
                             for wid, (w, _n) in workers.items()}
                ready = _wait(list(sentinels), timeout=0.05)
                for sent in ready:
                    wid = sentinels[sent]
                    proc, node = workers.pop(wid)
                    proc.join()
                    if proc.exitcode == 0:
                        completed_ok[wid] = node
                        continue
                    if respawns >= respawn_budget:
                        failed = (
                            f"worker for node {node} died "
                            f"(exit {proc.exitcode}) with no respawn budget"
                        )
                        break
                    respawns += 1
                    resume = self._resume_map(broker, plans, remote,
                                              tasks_by_node[node])
                    detected = broker.now
                    trace.record_mark(
                        Mark.detection(detected, "worker-death", f"node{node}"))
                    fired_exits.update(
                        e for e in pending_faults(tasks_by_node[node])
                        if e.kind == "exit"
                        and e.timestamp <= resume.get(e.task, 0)
                    )
                    spawn(node, f"node{node}r{respawns}", resume)
                    trace.record_mark(
                        Mark.failover(detected, broker.now, f"respawn node{node}"))
                if failed:
                    break
        finally:
            if failed:
                broker.poison_all()
            for _wid, (proc, _node) in workers.items():
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
        try:
            drained = drain.join()
        except Exception as exc:  # noqa: BLE001 - fails the run below
            failed = failed or (broker.errors or [repr(exc)])[0]
        wall = broker.now  # the run's one clock, which every record is on

        # Worker exit races the broker draining its "done" message; wait for
        # every cleanly-exited worker's report before merging.  A report
        # that never comes fails the run: it holds the node's outputs.
        wait_until = _time.monotonic() + 10.0
        while (not failed
               and not completed_ok.keys() <= broker.done_payloads.keys()
               and _time.monotonic() < wait_until):
            _time.sleep(0.005)
        missing = [node for wid, node in completed_ok.items()
                   if wid not in broker.done_payloads]
        if missing and not failed:
            failed = f"worker for node {missing[0]} exited without its done report"
        # The broker's counters, then each worker's share of the run (its
        # node-local channels, the stamps its sources took, its kernel
        # spans, what its collectors drained), then what the parent's
        # collectors drained.
        reports = [NodeReport(broker.stats(), *broker.gc_totals()),
                   *broker.done_payloads.values()]
        broker_ops = dict(broker.op_counts)
        broker_roundtrips = broker.roundtrips()
        broker.stop()
        if failed:
            raise ReproError(f"process runtime failed: {failed}")
        reports.append(drained)
        return merge_reports(
            self.graph, self.state, timestamps, reports, trace, wall, self.obs,
            respawns=respawns,
            meta={
                "substrate": "process",
                "nodes": nodes,
                "assignment": dict(self.assignment),
                "node_local_channels": sorted(node_local),
                "broker_ops": broker_ops,
                "broker_roundtrips": broker_roundtrips,
            },
        )

    # -- recovery helpers ---------------------------------------------------

    @staticmethod
    def _resume_map(broker: ChannelBroker, plans, remote,
                    node_tasks) -> dict[str, int]:
        """First incomplete frame per task, recovered from STM state.

        A task consumes its inputs *last* in the frame loop, so its
        streaming input connections' virtual time is the first frame not
        fully finished.  Sources (no inputs) resume after their last
        replayable put.
        """
        resume: dict[str, int] = {}
        for t in node_tasks:
            streaming = plans[t.name].stream_inputs
            if streaming:
                resume[t.name] = min(
                    broker.conn(remote[t.name][ch]).virtual_time
                    for ch in streaming
                )
            elif t.outputs:
                resume[t.name] = min(
                    broker.conn_put_next(remote[t.name][ch])
                    for ch in t.outputs
                )
            else:
                resume[t.name] = 0
        return resume
