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
  builds the node (channels made, connections attached) and its pipes to
  the broker — one per lane that owns a boundary end, one control pipe
  for the worker's reports — and the worker inherits both through the
  fork;
* STM follows the schedule's node boundaries — the paper's intra- versus
  inter-node communication distinction (Figure 6).  A streaming channel
  whose every producer and consumer is scheduled on one node is a
  :class:`~repro.stm.threaded.ThreadedChannel` inside that node's
  process, and so is every terminal channel: a streaming channel has
  exactly one producer (``TaskGraph.validate``), and its collector is
  tapped in that producer's lane.  Only the edges that cross nodes (and the static
  channels, which the parent fills) are hosted by the parent's
  :class:`~repro.stm.process.ChannelBroker` (shared-memory transport for
  array payloads, pickle otherwise), where a placement's boundary traffic
  for a frame is one :class:`~repro.stm.process.StepBatch` step — the
  broker's one op, a round trip on the lane's pipe.  The broker is served
  by :meth:`ProcessRuntime.run`'s one loop, which waits on every pipe and
  every worker's sentinel at once: the parent runs no thread of its own.
  A one-node schedule therefore crosses the broker
  only for its static reads, never per frame, and a task with no
  boundary channel never.  What the parent can then no longer read off
  the broker — the node-local channels' counters and GC totals, the
  digitize stamps, its trace records, what its collectors drained — is
  the node's :class:`~repro.runtime.live.NodeReport`, which rides each
  worker's ``done`` message into :func:`~repro.runtime.live.
  merge_reports`, beside the broker's own counters as one more report.
  A worker that exits cleanly without that report fails the run: once its
  sentinel fires, the loop reads whatever it sent before judging its
  exit, so a report is never mistaken for missing;
* a task placed with a data-parallel variant (``dp4``) runs its chunks in
  the four lanes it occupies, the node body's one data-parallel path
  (:mod:`repro.runtime.live`), as on threads — which is why S004's
  condition, a placement spanning nodes, is refused before any fork;
* the run has one :class:`~repro.sim.trace.TraceRecorder`, in the
  parent, that ``obs=`` listens to: boundary traffic is recorded at the
  broker as it happens; each worker records its kernel spans (and, when
  observed, its node-local traffic) into a trace of its own, on the same
  clock, whose raw records the parent replays into the run's at join;
* a failure ends the run at once in a typed
  :class:`~repro.errors.ReproError`, not after ``op_timeout``: a lane
  thread that raises reports to the parent immediately and poisons its
  node's own channels (the node body does both), a worker that dies is
  found by its process sentinel, the parent poisons the broker's
  channels, and every blocked sibling — on a node-local channel or
  parked on a step from another node — wakes with
  :class:`~repro.stm.threaded.ChannelPoisoned`.  The run's error is the
  kernel's own when one raised: its ``fatal`` report is read before the
  exit it caused.  Nothing is retried or
  respawned: failures as regime changes (§3.4) are the simulator's
  :class:`~repro.faults.runner.FaultTolerantExecutor`.
"""

from __future__ import annotations

import contextlib
import os
import time as _time
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.schedule import PipelinedSchedule
from repro.errors import ReproError
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import build_task_plans
from repro.runtime.live import (
    LiveNode,
    NodeReport,
    check_static_inputs,
    check_timestamps,
    merge_reports,
    schedule_slots,
    terminal_channels,
)
from repro.runtime.result import ExecutionResult
from repro.sim.trace import TraceRecorder
from repro.state import State
from repro.stm.process import ChannelBroker

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.schedule import ScheduleSolution
    from repro.obs import Observability
    from repro.sim.cluster import ClusterSpec

__all__ = ["ProcessRuntime"]


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(node: LiveNode, control, pipes: dict) -> None:
    """Entry point of one node worker (runs in the forked child).

    ``node`` was built in the parent — channels made, connections attached
    — and is inherited through the fork with the worker's pipes to the
    broker, never pickled: ``control`` carries its reports, ``pipes`` holds
    one per lane that owns a boundary end.
    """
    try:
        report = node.run((control, pipes))
    except BaseException:  # noqa: BLE001 - a task's error went out as "fatal"
        report = None  # and exit code 1 reports the worker's failure
    if report is not None:
        # What the parent can no longer read off the broker rides here.
        with contextlib.suppress(OSError):  # the parent gave the run up
            control.send(("done", report))
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
        ``ThreadedChannel``.  A terminal channel's one producer is its only
        end, so it is always collected on that producer's node.  Everything
        else — a channel whose ends sit on different nodes, a static channel
        (the parent fills it) — is a *boundary* channel, hosted by the
        broker.  Locality is a function of the schedule alone.
        """
        local: dict[int, dict[str, Optional[int]]] = {}
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

        check_timestamps(timestamps)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - exotic platform
            raise ReproError(f"the process runtime needs fork: {exc}") from None

        # The broker carries only the edges that cross nodes (and the
        # statics the parent fills); intra-node STM stays in the worker.
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
        for name, value in self.static_inputs.items():
            broker.put_static(name, value)
        trace = TraceRecorder()
        if self.obs is not None:
            trace.subscribe(self.obs.on_record)
            broker.record_into(trace)

        nodes = sorted(set(self.assignment.values()))
        workers: dict[int, tuple[Any, int]] = {}  # sentinel -> (Process, node)
        broker.start()
        for node in nodes:
            local = local_by_node.get(node, {})
            # The node is built here, channels made and connections
            # attached, and inherited by the child with its pipes.
            live = LiveNode(
                [t for t in self.graph.tasks if self.assignment[t.name] == node],
                plans, local, self.state,
                timestamps, self.op_timeout, remote=remote,
                collect=tuple(ch for ch in terminal if ch in local),
                slots=self.slots, t0=broker._t0,
                observe=self.obs is not None,
            )
            control = broker.pipe(node)
            pipes = {lane: broker.pipe(node) for lane in live.boundary_lanes()}
            proc = ctx.Process(target=_worker_main, name=f"node{node}",
                               daemon=True, args=(live, control, pipes))
            proc.start()
            # The child holds these ends now; a copy left in the parent
            # would hide the child's exit from the broker.
            for end in (control, *pipes.values()):
                end.close()
            workers[proc.sentinel] = (proc, node)

        deadline = _time.monotonic() + self.op_timeout * (timestamps + 4)
        failed: Optional[str] = None
        stopping = False
        try:
            while workers and _time.monotonic() < deadline:
                for sentinel in broker.turn(0.02, workers):
                    proc, node = workers.pop(sentinel)
                    broker.hang_up(node)  # read what it sent before judging its exit
                    proc.join()
                    if proc.exitcode != 0:
                        failed = failed or f"worker for node {node} died (exit {proc.exitcode})"
                    elif node not in broker.done_payloads:
                        failed = failed or f"worker for node {node} exited without its done report"
                if (failed or broker.errors) and not stopping:
                    # Every sibling blocked on the broker wakes poisoned, and
                    # the rest of the fleet gets a moment to leave.
                    stopping = True
                    broker.poison_all()
                    deadline = _time.monotonic() + 5.0
            if workers and not failed:
                failed = "worker processes did not finish in time"
        finally:
            broker.close()
            for proc, _node in workers.values():
                proc.terminate()
                proc.join()
        wall = broker.now  # the run's one clock, which every record is on
        if broker.errors:  # a kernel's own error names the failure it caused
            failed = broker.errors[0]
        if failed:
            raise ReproError(f"process runtime failed: {failed}")
        # The broker's counters, then each worker's share of the run (its
        # node-local channels, the stamps its sources took, its kernel
        # spans, what its collectors drained).
        reports = [NodeReport(broker.stats(), *broker.gc_totals()),
                   *broker.done_payloads.values()]
        return merge_reports(
            self.graph, self.state, timestamps, reports, trace, wall, self.obs,
            meta={
                "substrate": "process",
                "nodes": nodes,
                "assignment": dict(self.assignment),
                "node_local_channels": sorted(node_local),
                "broker_ops": dict(broker.op_counts),
                "broker_roundtrips": broker.roundtrips(),
            },
        )
