"""Runtimes: execute a task graph on the simulated cluster (or real threads).

* :mod:`repro.runtime.hub` — STM channels wired into the simulator with
  change notification and flow-control blocking, and
  :class:`~repro.runtime.hub.SimWorld`: the one simulated world (STM
  wiring, frame ledger, result builder) the dynamic, static and
  fault-tolerant executors all run in, so that only their scheduling
  policy differs.
* :mod:`repro.runtime.dynamic` — the *dynamic* executor: every task is a
  free-running thread scheduled by an on-line scheduler
  (:class:`~repro.sched.online.PthreadScheduler` is the paper's baseline).
* :mod:`repro.runtime.static_exec` — the *static* executor: replays a
  pre-computed :class:`~repro.core.schedule.PipelinedSchedule`, verifying
  as it goes that the schedule's promises (resource exclusivity, data
  readiness) hold in execution.
* :mod:`repro.runtime.result` — the one result object every executor and
  both live runtimes return: trace + per-timestamp latency accounting +
  GC totals.
* :mod:`repro.runtime.live` — what the two live runtimes share: the one
  reading of a schedule (:func:`~repro.runtime.live.schedule_slots`: one
  thread per *lane*, the placements occupying one processor, a
  data-parallel one in each of its lanes), the one lane
  frame loop (:func:`~repro.runtime.live.run_frames`, a *step* per
  placement), the one step body
  (:func:`~repro.runtime.live.make_exchange`: local channel ends inline,
  boundary ends on one batch), the configuration checks and the report
  merge (:func:`~repro.runtime.live.merge_reports`) that builds the run's
  :class:`~repro.runtime.result.ExecutionResult`.
* :mod:`repro.runtime.threaded` — the live runtime running real kernels on
  real Python threads; every channel end is local, inline
  :class:`~repro.stm.threaded.ThreadedChannel` operations.
* :mod:`repro.runtime.process` — the live runtime running real kernels on
  worker *processes* (one per scheduled cluster node); a channel scheduled entirely on one node is a
  ``ThreadedChannel`` inside that node's worker, an edge that crosses
  nodes costs one :class:`~repro.stm.process.StepBatch` round trip to the
  broker per frame and task.
"""
