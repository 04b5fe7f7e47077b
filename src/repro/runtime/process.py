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
  :class:`~repro.stm.process.WorkerLink`;
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
  broker's one op.  A one-node schedule therefore crosses the broker
  only for its static reads, never per frame, and a task with no
  boundary channel never.  What the parent can then no longer read off
  the broker — the node-local channels' counters and GC totals, the
  digitize stamps, its trace records, what its collectors drained — is
  the node's :class:`~repro.runtime.live.NodeReport`, which rides each
  worker's ``done`` message into :func:`~repro.runtime.live.
  merge_reports`, beside the broker's own counters as one more report.
  A worker that exits cleanly without that report fails the run;
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
  :class:`~repro.stm.threaded.ChannelPoisoned`.  Nothing is retried or
  respawned: failures as regime changes (§3.4) are the simulator's
  :class:`~repro.faults.runner.FaultTolerantExecutor`.
"""

from __future__ import annotations

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
from repro.stm.process import ChannelBroker, WorkerLink

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.schedule import ScheduleSolution
    from repro.obs import Observability
    from repro.sim.cluster import ClusterSpec

__all__ = ["ProcessRuntime"]


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(node: LiveNode, worker_id: int, requests, replies) -> None:
    """Entry point of one node worker (runs in the forked child).

    ``node`` was built in the parent — channels made, connections attached
    — and is inherited through the fork, never pickled.  The worker adds
    its link to the broker.
    """
    link = WorkerLink(worker_id, requests, replies)
    link.start()
    try:
        report = node.run(link)
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

        from multiprocessing.connection import wait as _wait

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
        tasks_by_node = {
            n: [t for t in self.graph.tasks if self.assignment[t.name] == n]
            for n in nodes
        }
        workers: dict[int, tuple[Any, int]] = {}  # worker_id -> (Process, node)
        broker.start()
        for worker_id, node in enumerate(nodes, 1):
            local = local_by_node.get(node, {})
            # The node is built here, channels made and connections
            # attached, and inherited by the child.
            live = LiveNode(
                tasks_by_node[node], plans, local, self.state,
                timestamps, self.op_timeout, remote=remote,
                collect=tuple(ch for ch in terminal if ch in local),
                slots=self.slots, t0=broker._t0,
                observe=self.obs is not None,
            )
            proc = ctx.Process(
                target=_worker_main, name=f"node{node}", daemon=True,
                args=(live, worker_id, broker.requests,
                      broker.register_worker(worker_id)),
            )
            proc.start()
            workers[worker_id] = (proc, node)

        completed_ok: dict[int, int] = {}  # worker_id -> node, exit code 0
        hard_deadline = _time.monotonic() + self.op_timeout * (timestamps + 4)
        failed: Optional[str] = None
        try:
            while workers and not failed:
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
                    if proc.exitcode != 0:
                        failed = (f"worker for node {node} died "
                                  f"(exit {proc.exitcode})")
                        break
                    completed_ok[wid] = node
        finally:
            if failed:
                broker.poison_all()
            for _wid, (proc, _node) in workers.items():
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
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
        # spans, what its collectors drained).
        reports = [NodeReport(broker.stats(), *broker.gc_totals()),
                   *broker.done_payloads.values()]
        broker_ops = dict(broker.op_counts)
        broker_roundtrips = broker.roundtrips()
        broker.stop()
        if failed:
            raise ReproError(f"process runtime failed: {failed}")
        return merge_reports(
            self.graph, self.state, timestamps, reports, trace, wall, self.obs,
            meta={
                "substrate": "process",
                "nodes": nodes,
                "assignment": dict(self.assignment),
                "node_local_channels": sorted(node_local),
                "broker_ops": broker_ops,
                "broker_roundtrips": broker_roundtrips,
            },
        )
