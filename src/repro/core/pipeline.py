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
once per iteration schedule and on first need, in ``O(n^2)`` for ``n``
spans, the separations and the collision tests of the span pairs of every
rotation; all ``P`` shifts, and every ``k``, index into them.  Per member of S that replaces
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

The relaxed collision screen.  Most of S cannot beat the incumbent, and
proving it through the exact scan needs the ``O(n^2)`` tables, so the
tables are built on first need and :meth:`PipelineSearch.beats` first runs
a screen that reads only the per-processor span lists.  Per shift it
starts ``x`` at the lower bound (or the latency, if smaller); for ``k = 1,
2, 3`` it looks at each span pair (``a`` on processor ``q + k * shift``,
``b`` on ``q``, mod P) whose forbidden interval ``((start_a - end_b + eps)
/ k, (end_a - start_b - eps) / k)``, both ends pulled in by a margin,
strictly contains ``x``, and moves ``x`` to that interval's right end,
until no pair moves it.  If ``x`` reaches the incumbent's period on every
shift, the member is dropped without a table; otherwise the exact scan
runs unchanged and is the only judge.

Why the screen is sound.  Every II from the starting point up to ``x``
(exclusive) is infeasible — by induction, since ``x`` only moves from
inside an interval to its right end — and it suffices that ``feasible()``
rejects each of them:

* every candidate is at least ``min(lb, latency)``, the screen's starting
  point (the latency is always a candidate, and a busy-time sum may round
  an ulp above it), so no candidate below the final ``x`` survives the
  exact scan;
* ``k * hi <= end_a - start_b - eps <= latency - eps`` (starts are clamped
  at 0), so ``feasible()``, which tests every ``k`` until ``k * II`` reaches
  ``latency - eps``, reaches every ``k`` the screen uses;
* the pair is in ``hits[(k * shift) % P]``, tested with the same
  inequalities: ``II`` strictly inside the interval is exactly
  ``start_b + k * II < end_a - eps`` and ``start_a < end_b + k * II - eps``;
* the margin, ``2**-40`` of the latency (the largest time in the
  iteration) on both ends, is thousands of times the float rounding of
  ``k * period`` and of those sums in ``feasible()`` and of the screen's
  own arithmetic, so a value the screen puts strictly inside an interval is
  one ``feasible()`` rejects.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

from repro.errors import InvalidSchedule, ScheduleError
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.state import State

__all__ = ["naive_pipeline", "PipelineSearch", "min_initiation_interval", "best_pipelined"]

_EPS = 1e-9
# The screen's margin on each interval end, relative to the latency.
_SCREEN_MARGIN = 2.0 ** -40


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


class _RotationTables(NamedTuple):
    seps: list[list[float]]
    hits: list[list[tuple[float, float, float, float]]]
    max_sep: float


class PipelineSearch:
    """The exact II search over one iteration schedule on ``n_procs`` processors.

    Construction is linear and reads only the iteration's spans
    (:meth:`~repro.core.schedule.IterationSchedule.busy_spans`), so a member
    of S kept as the search's rows builds no :class:`Placement` here: the
    spans, the busy-time bounds and the screen's per-processor span lists.
    Its placements are built when :meth:`best` hands it to
    :class:`PipelinedSchedule`.  The rotation-indexed span-pair
    tables (``_tables``, see the module docstring) are built on first need,
    by :meth:`candidates` or :meth:`feasible`, and shared.  For rotation
    ``r``, over the span pairs with ``(proc_a - proc_b) % P == r`` — ``a``
    in iteration 0, ``b`` in the later iteration:

    * ``seps[r]`` — the distinct positive separations ``end_a - start_b``
      and ``start_a - end_b``, descending; ``sep / k`` is a critical value;
    * ``hits[r]`` — the distinct collision tests ``(start_b, end_b,
      start_a, end_a - eps)``.

    ``max_sep`` is the largest separation of any rotation.  :meth:`best` is
    the search; :meth:`beats` is the same ascending scans cut off at a bound,
    for callers comparing many iterations against an incumbent — it runs the
    relaxed collision screen first, and asks :meth:`candidates` only for the
    values below that bound.  The unbounded candidate list of a shift is
    computed once and shared.
    """

    def __init__(self, iteration: IterationSchedule, n_procs: int) -> None:
        spans = iteration.busy_spans()
        latency = iteration.latency
        if not spans or latency <= 0:
            raise InvalidSchedule("cannot pipeline an empty or zero-length iteration")
        self.iteration = iteration
        self.n_procs = n_procs
        self.spans = spans
        self.latency = latency
        self.mean_busy = sum(e - s for _, s, e in spans) / n_procs
        # The screen's span lists, starts clamped at 0: ``(proc, start,
        # end)`` in range, and per processor ``(start + pad, end - pad)``,
        # pad = eps plus the margin.
        pad = _EPS + _SCREEN_MARGIN * latency
        self._lane_spans: list[tuple[int, float, float]] = []
        self._padded: list[list[tuple[float, float]]] = [[] for _ in range(n_procs)]
        per_proc: dict[int, float] = {}
        for proc, s, e in spans:
            per_proc[proc] = per_proc.get(proc, 0.0) + (e - s)
            if 0 <= proc < n_procs:
                s = max(s, 0.0)
                self._lane_spans.append((proc, s, e))
                self._padded[proc].append((s + pad, e - pad))
        self.max_busy = max(per_proc.values())
        self._candidates: dict[int, list[float]] = {}

    @cached_property
    def _tables(self) -> _RotationTables:
        """The ``O(n^2)`` rotation tables, built on first need."""
        n_procs = self.n_procs
        seps: list[set[float]] = [set() for _ in range(n_procs)]
        hits: list[set[tuple[float, float, float, float]]] = [
            set() for _ in range(n_procs)
        ]
        for proc_a, sa, ea in self.spans:
            if not 0 <= proc_a < n_procs:
                continue  # no rotation of an in-range processor lands here
            ea_eps = ea - _EPS
            for proc_b, sb, eb in self.spans:
                r = (proc_a - proc_b) % n_procs
                hits[r].add((sb, eb, sa, ea_eps))
                # A separation <= 0 yields a critical value below the
                # (positive) lower bound, which is a candidate anyway.
                if ea - sb > 0:
                    seps[r].add(ea - sb)
                if sa - eb > 0:
                    seps[r].add(sa - eb)
        sorted_seps = [sorted(s, reverse=True) for s in seps]
        return _RotationTables(
            seps=sorted_seps,
            hits=[list(h) for h in hits],
            max_sep=max((s[0] for s in sorted_seps if s), default=0.0),
        )

    def _lower_bound(self, shift: int) -> float:
        """Busy time per physical processor per period: with a shift the work
        rotates, so the binding bound is the mean; without a shift it is the
        per-processor busy time."""
        if shift == 0:
            return max(self.mean_busy, self.max_busy)
        return self.mean_busy

    def screen_floor(self, shift: int, below: float = math.inf) -> float:
        """The relaxed collision screen: an ``x`` with no feasible II in
        ``[lower bound, x)`` for ``shift``, pushed from the lower bound past
        the forbidden intervals of ``k = 1, 2, 3`` (see the module docstring)
        and stopped once it reaches ``below``."""
        P, lane_spans, padded = self.n_procs, self._lane_spans, self._padded
        # The latency is a candidate too, and the bound may round above it.
        x = min(self._lower_bound(shift), self.latency)
        moved = True
        while moved and x < below:
            moved = False
            for k in (1, 2, 3):
                rotation = k * shift
                X = start = k * x
                for q, sb, eb in lane_spans:
                    for sa_pad, ea_pad in padded[(q + rotation) % P]:
                        if sa_pad - eb < X < ea_pad - sb:
                            X = ea_pad - sb
                # Only when pushed, and strictly up: X / k may round to x.
                if X > start and X / k > x:
                    x, moved = X / k, True
                    if x >= below:
                        return x
        return x

    def feasible(self, shift: int, period: float) -> bool:
        """Check that iteration 0 never collides with any later iteration."""
        if period <= 0:
            return False
        P, latency, hits = self.n_procs, self.latency, self._tables.hits
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
        P, latency = self.n_procs, self.latency
        if not 0 <= shift < P:
            raise InvalidSchedule(f"shift {shift} out of range 0..{P - 1}")
        lb = self._lower_bound(shift)
        if lb >= below:
            return []  # lb is the smallest candidate
        seps, _, max_sep = self._tables
        candidates: set[float] = {lb, latency}
        # Any candidate below lb is infeasible, so k never needs to exceed
        # latency / lb (capped defensively for degenerate lb).
        Kmax = max(1, min(int(math.ceil(latency / max(lb, _EPS))) + P, 10_000))
        low, high = lb - _EPS, latency + _EPS
        rotation = 0  # (k * shift) % P, accumulated
        for k in range(1, Kmax + 1):
            if max_sep / k < low:
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

        The relaxed collision screen first: when it pushes every shift's
        floor to ``period``, no candidate below it is feasible and no table
        is built.  Otherwise the same ascending scans as :meth:`min_ii`, each
        stopped at ``period``: ``False`` means every per-shift minimum, hence
        the period :meth:`best` would return, is at least ``period``.
        """
        shifts = _rotating_first(self.n_procs)
        if all(self.screen_floor(shift, period) >= period for shift in shifts):
            return False
        for shift in shifts:
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
