"""Discrete-event simulation substrate.

The paper evaluates on a cluster of four AlphaServer 4100 SMPs.  We do not
have that hardware (nor would wall-clock Python threading be faithful to it,
given the GIL), so the entire evaluation runs on this deterministic
discrete-event simulator:

* :mod:`repro.sim.engine` — the simulated clock and one heap of plain
  timed calls, plus one-shot events that callbacks wait on (a minimal,
  dependency-free kernel with no coroutines).
* :mod:`repro.sim.resources` — capacity-limited FIFO resources.
* :mod:`repro.sim.cluster` — the cluster shape: nodes, processors per node,
  relative processor speeds.
* :mod:`repro.sim.network` — communication cost model distinguishing
  same-processor, intra-node (shared memory) and inter-node (network)
  transfers.
* :mod:`repro.sim.fabric` — the opt-in contended links over that model.
* :mod:`repro.sim.trace` — execution traces: Gantt spans and per-timestamp
  latency bookkeeping, consumed by metrics and figures.
"""
