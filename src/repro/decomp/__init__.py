"""Data decomposition: frame partitioning (FP) x model partitioning (MP).

§2.2 of the paper: the target-detection task's input "may be divided in
both ways at the same time so that one piece of work corresponds to
searching for a subset of models in a region of the frame", and the best
choice *depends on the application state* — that is Table 1.

* :mod:`repro.decomp.strategies` — decompositions and their work chunks.
* :mod:`repro.decomp.costmodel` — the analytic chunk-cost model calibrated
  against Table 1 (full-frame scan rate, per-chunk dispatch, per-model
  setup).
* :mod:`repro.decomp.planner` — the per-state decomposition table the
  splitter consults at run time ("the splitter will look-up the
  decomposition for the current state from a pre-computed table").

Figure 9's live splitter / workers / joiner is a data-parallel placement run
in the lanes it occupies (:class:`repro.runtime.live.LiveNode`).
"""
