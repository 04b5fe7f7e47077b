"""Software pipelining: from one iteration to the multi-iteration schedule M.

Two constructions from §3.3:

* :func:`naive_pipeline` — Figure 4(b): "each virtual processor processes
  one time-stamp through all its tasks and then begins on the next
  time-stamp"; with P processors and serial iteration time T the initiation
  interval is T / P and the pattern shifts one processor per timestamp.

* :func:`best_pipelined` — the last step of Figure 6: given a minimal-
  latency iteration schedule, find the smallest initiation interval II (and
  processor shift) such that successive iterations never collide on a
  processor.  Throughput is 1/II.

Why the search is exact.  Fix a shift.  Span ``b`` of iteration ``k`` meets
span ``a`` of iteration 0 on a processor exactly when ``k * II`` lies
strictly between ``start_a - end_b`` and ``end_a - start_b``, so the
infeasible IIs are a union of open intervals ``((start_a - end_b) / k,
(end_a - start_b) / k)``, and the feasible set above the busy-time lower
bound is closed: its minimum is the lower bound itself or the right end of
one of those intervals.  Testing these *critical values* in ascending order
therefore yields the true minimum (feasibility is not monotone in II, so a
bisection would not).

How it is indexed.  Iteration ``k`` is the base pattern rotated by
``(k * shift) % P`` processors, so which span pairs can meet depends on
``(k, shift)`` only through that rotation.  :class:`PipelineSearch` builds,
once per iteration schedule in ``O(n^2)`` for ``n`` spans, the separations
and the collision tests of the span pairs of every rotation; all ``P``
shifts, and every ``k``, index into them.  Per member of S that replaces
``P`` independent searches, each scanning all ``n^2`` pairs with a modulo
test for every ``k <= latency / lower bound`` and regrouping the spans by
processor for every feasibility test, by one table build plus, per shift
and ``k``, a walk over the distinct separations of one rotation that stops
at the lower bound — and ``k`` itself stops once the largest separation of
any rotation, divided by it, is under that bound.  The walk takes an upper
bound as well: the incumbent screen (:meth:`PipelineSearch.beats`) asks only
for the critical values below the incumbent's period, so a member that
cannot win — most of S — never has its full candidate lists built; the
unbounded list is built, and shared, only where :meth:`PipelineSearch.best`
runs.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import InvalidSchedule, ScheduleError
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import State

__all__ = ["naive_pipeline", "PipelineSearch", "min_initiation_interval", "best_pipelined"]

_EPS = 1e-9


def naive_pipeline(
    graph: TaskGraph,
    state: State,
    cluster: ClusterSpec,
    order: Optional[list[str]] = None,
) -> PipelinedSchedule:
    """The Figure 4(b) schedule: whole iteration serial on one processor.

    Tasks run back-to-back in topological order on a single processor;
    iteration k runs on processor ``k mod P``; the initiation interval is
    ``serial_time / P`` (every processor continuously busy — "this schedule
    has no idle time").
    """
    names = order or graph.topo_order()
    if set(names) != set(graph.task_names):
        raise ScheduleError("order must cover exactly the graph's tasks")
    placements = []
    t = 0.0
    for name in names:
        dur = graph.task(name).cost(state)
        placements.append(Placement(name, (0,), t, dur, variant="serial"))
        t += dur
    iteration = IterationSchedule(placements, name="naive-pipeline")
    P = cluster.total_processors
    total = t
    if total <= 0:
        raise ScheduleError("cannot pipeline a zero-cost iteration")
    period = total / P
    return PipelinedSchedule(iteration, period=period, shift=1 if P > 1 else 0,
                             n_procs=P, name="naive-pipeline")


def _rotating_first(n_procs: int) -> list[int]:
    """Every cyclic shift, the rotating patterns before the fixed one."""
    return [*range(1, n_procs), 0]


class PipelineSearch:
    """The exact II search over one iteration schedule on ``n_procs`` processors.

    Holds the rotation-indexed span-pair tables (see the module docstring).
    For rotation ``r``, over the span pairs with ``(proc_a - proc_b) % P ==
    r`` — ``a`` in iteration 0, ``b`` in the later iteration:

    * ``seps[r]`` — the distinct positive separations ``end_a - start_b``
      and ``start_a - end_b``, descending; ``sep / k`` is a critical value;
    * ``hits[r]`` — the distinct collision tests ``(start_b, end_b,
      start_a, end_a - eps)``.

    ``max_sep`` is the largest separation of any rotation.  :meth:`best` is
    the search; :meth:`beats` is the same ascending scans cut off at a bound,
    for callers comparing many iterations against an incumbent — it asks
    :meth:`candidates` only for the values below that bound.  The unbounded
    candidate list of a shift is computed once and shared.
    """

    def __init__(self, iteration: IterationSchedule, n_procs: int) -> None:
        spans = [
            (proc, p.start, p.end)
            for p in iteration.placements
            for proc in p.procs
            if p.duration > 0
        ]
        latency = iteration.latency
        if not spans or latency <= 0:
            raise InvalidSchedule("cannot pipeline an empty or zero-length iteration")
        self.iteration = iteration
        self.n_procs = n_procs
        self.latency = latency
        self.mean_busy = sum(e - s for _, s, e in spans) / n_procs
        per_proc: dict[int, float] = {}
        for proc, s, e in spans:
            per_proc[proc] = per_proc.get(proc, 0.0) + (e - s)
        self.max_busy = max(per_proc.values())
        seps: list[set[float]] = [set() for _ in range(n_procs)]
        hits: list[set[tuple[float, float, float, float]]] = [
            set() for _ in range(n_procs)
        ]
        for proc_a, sa, ea in spans:
            if not 0 <= proc_a < n_procs:
                continue  # no rotation of an in-range processor lands here
            ea_eps = ea - _EPS
            for proc_b, sb, eb in spans:
                r = (proc_a - proc_b) % n_procs
                hits[r].add((sb, eb, sa, ea_eps))
                # A separation <= 0 yields a critical value below the
                # (positive) lower bound, which is a candidate anyway.
                if ea - sb > 0:
                    seps[r].add(ea - sb)
                if sa - eb > 0:
                    seps[r].add(sa - eb)
        self.seps = [sorted(s, reverse=True) for s in seps]
        self.max_sep = max((s[0] for s in self.seps if s), default=0.0)
        self.hits = [list(h) for h in hits]
        self._candidates: dict[int, list[float]] = {}

    def feasible(self, shift: int, period: float) -> bool:
        """Check that iteration 0 never collides with any later iteration."""
        if period <= 0:
            return False
        P, latency, hits = self.n_procs, self.latency, self.hits
        K = int(latency / period) + P + 1
        for k in range(1, K + 1):
            off = k * period
            if off >= latency - _EPS:
                break
            for s, e, s0, e0m in hits[(k * shift) % P]:
                if s + off < e0m and s0 < e + off - _EPS:
                    return False
        return True

    def candidates(self, shift: int, below: float = math.inf) -> list[float]:
        """The critical II values for ``shift`` below ``below``, ascending.

        The unbounded list is computed once and shared; a bounded call
        (:meth:`beats`) returns it when it exists and otherwise generates
        only the values under its bound.
        """
        cached = self._candidates.get(shift)
        if cached is not None:
            return cached
        P, latency, seps = self.n_procs, self.latency, self.seps
        if not 0 <= shift < P:
            raise InvalidSchedule(f"shift {shift} out of range 0..{P - 1}")
        # Busy time per physical processor per period: with a shift the work
        # rotates, so the binding bound is the mean; without a shift it is the
        # per-processor busy time.
        lb = self.mean_busy
        if shift == 0:
            lb = max(lb, self.max_busy)
        if lb >= below:
            return []  # lb is the smallest candidate
        candidates: set[float] = {lb, latency}
        # Any candidate below lb is infeasible, so k never needs to exceed
        # latency / lb (capped defensively for degenerate lb).
        Kmax = max(1, min(int(math.ceil(latency / max(lb, _EPS))) + P, 10_000))
        low, high = lb - _EPS, latency + _EPS
        rotation = 0  # (k * shift) % P, accumulated
        for k in range(1, Kmax + 1):
            if self.max_sep / k < low:
                break  # every rotation's largest critical value is below lb
            rotation += shift
            if rotation >= P:
                rotation -= P
            for sep in seps[rotation]:
                crit = sep / k
                if crit < low:
                    break  # descending: the rest are smaller still
                if crit < below and crit <= high:
                    candidates.add(lb if lb > crit else crit)
        out = sorted(c for c in candidates if 0 < c < below)
        if below == math.inf:
            self._candidates[shift] = out
        return out

    def min_ii(self, shift: int) -> float:
        """Exact minimal II for a fixed processor shift."""
        for cand in self.candidates(shift):
            if self.feasible(shift, cand):
                return cand
        return self.latency  # pragma: no cover - latency is always feasible

    def beats(self, period: float) -> bool:
        """Whether some shift has a feasible II below ``period``.

        The same ascending scans as :meth:`min_ii`, each stopped at
        ``period``: ``False`` means every per-shift minimum, hence the
        period :meth:`best` would return, is at least ``period``.
        """
        for shift in _rotating_first(self.n_procs):
            for cand in self.candidates(shift, period):
                if cand >= period:
                    break  # a shared unbounded list runs past the bound
                if self.feasible(shift, cand):
                    return True
        return False

    def best(
        self, shifts: Optional[list[int]] = None, name: str = "pipelined"
    ) -> PipelinedSchedule:
        """The throughput-maximizing pipelined schedule over processor shifts.

        Tries every cyclic shift (or the given subset), takes the smallest
        feasible initiation interval, and returns the resulting
        :class:`PipelinedSchedule`.  Ties are broken toward a *rotating*
        pattern (smallest nonzero shift) — the paper's schedules shift one
        processor per timestamp so successive iterations wrap around, which
        also spreads the work evenly across processors.  The result is
        re-validated for conflicts as a safety net.
        """
        best: Optional[tuple[float, int]] = None
        for s in shifts if shifts is not None else _rotating_first(self.n_procs):
            ii = self.min_ii(s)
            if best is None or ii < best[0] - _EPS:
                best = (ii, s)
        if best is None:
            raise ScheduleError("no shifts to try")
        period, shift = best
        sched = PipelinedSchedule(
            self.iteration, period=period, shift=shift, n_procs=self.n_procs, name=name
        )
        sched.validate_conflict_free()
        return sched


def min_initiation_interval(
    iteration: IterationSchedule,
    n_procs: int,
    shift: int,
) -> float:
    """Exact minimal II for a fixed processor shift.

    Candidate II values are the critical separations ``(end_a - start_b)/k``
    at which a potential collision between a span of iteration 0 and a span
    of iteration k switches on or off, plus the area lower bound.  The
    smallest feasible candidate is returned; ``latency`` itself is always
    feasible (iterations fully separated), so the search cannot fail.
    """
    return PipelineSearch(iteration, n_procs).min_ii(shift)


def best_pipelined(
    iteration: IterationSchedule,
    cluster: ClusterSpec,
    shifts: Optional[list[int]] = None,
    name: str = "pipelined",
) -> PipelinedSchedule:
    """The throughput-maximizing pipelined schedule over processor shifts.

    One-shot form of :meth:`PipelineSearch.best`.
    """
    return PipelineSearch(iteration, cluster.total_processors).best(shifts, name)
