"""Baseline schedulers.

The paper's comparison points:

* :mod:`repro.sched.online` — the general on-line scheduler (the pthread
  package's behaviour): per-quantum time slicing, a FIFO ready queue, no
  knowledge of task dependencies, one processor per thread at a time;
  :mod:`repro.sched.priority` orders the same body's ready queue by
  stream timestamp instead.
* :mod:`repro.sched.handtuned` — §3.1's hand tuning: sweep the digitizer
  period and measure the latency/throughput trade-off (the Figure 3 tuning
  curve).
* :mod:`repro.sched.listsched` — a classic HEFT-style static list
  scheduler, the "heuristics" alternative §3.4 mentions for filling the
  per-state table when exhaustive enumeration is unaffordable.
"""
