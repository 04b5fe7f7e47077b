"""The paper's contribution: optimal scheduling under constrained dynamism.

* :mod:`repro.core.schedule` — schedule data model: placements, single
  iteration schedules, and pipelined multi-iteration schedules.
* :mod:`repro.core.enumerate` — the Figure 6 algorithm's middle step:
  exhaustive (branch-and-bound) enumeration of legal single-iteration
  schedules over task orders, data-parallel variants and processor
  placements; returns the minimal latency L and the set S of schedules
  achieving it.
* :mod:`repro.core.pipeline` — software pipelining: the naive
  one-iteration-per-processor pipeline of Figure 4(b) and the minimal
  initiation-interval computation that turns a single-iteration schedule
  into the multi-iteration schedule M.
* :mod:`repro.core.optimal` — the full Figure 6 algorithm, front to back.
* :mod:`repro.core.regime` — on-line state detection with debouncing.
* :mod:`repro.core.table` — the per-state schedule table and the switcher
  that reacts to regime changes.
* :mod:`repro.core.transition` — schedule-transition policies and costs.

Extensions beyond the paper's core (each motivated by its text):

* :mod:`repro.core.replay` — re-time a schedule structure under a
  different state (what a stale schedule actually delivers).
* :mod:`repro.core.serialize` — persist schedules/tables as JSON (the
  off-line artifact that "will be operating for months").
* :mod:`repro.core.frontier` — the full latency/throughput trade-off
  curve (the related work's [13] question, answered with Figure 6
  machinery).
* :mod:`repro.core.sensitivity` — robustness of schedules to error in the
  measured execution times Figure 6 consumes.
* :mod:`repro.core.parallel` — the off-line solve path: snapshot a
  request, execute it, run a batch in request order.
* :mod:`repro.core.cache` — content-addressed on-disk cache of solved
  schedules, so unchanged states are never re-solved.
"""
