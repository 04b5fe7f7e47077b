"""Schedule data model.

Two levels, mirroring §3.3 of the paper:

* :class:`IterationSchedule` — "the work for a given time-stamp, through
  all the tasks" placed on processors at relative times.  Its *latency* is
  the paper's objective.
* :class:`PipelinedSchedule` — the multi-iteration schedule **M**: the same
  iteration pattern repeated every *initiation interval* (II) seconds, with
  the processor assignment cyclically shifted by ``shift`` processors per
  iteration ("the pattern shifts over one processor for each successive
  time-stamp ... every fourth instance of T2 must wrap around").
  Throughput is ``1 / II``.

Both validate themselves against a graph + cluster + communication model,
so every scheduler in the package produces objects that can prove their own
legality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.errors import InvalidSchedule
from repro.graph.taskgraph import TaskGraph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

if TYPE_CHECKING:  # enumerate imports this module
    from repro.core.enumerate import SearchProblem

__all__ = ["Placement", "IterationSchedule", "PipelinedSchedule"]

_EPS = 1e-9


@dataclass(frozen=True)
class Placement:
    """One task instance placed in a single-iteration schedule.

    Attributes
    ----------
    task:
        Task name.
    procs:
        Global processor indices occupied for the whole duration.  A
        data-parallel placement lists every worker's processor; ``procs[0]``
        is the *primary* processor, charged for communication with
        predecessors and successors.
    start / duration:
        Relative to the iteration origin (seconds).
    variant:
        Label of the chosen variant ("serial", "dp4", ...).
    """

    task: str
    procs: tuple[int, ...]
    start: float
    duration: float
    variant: str = "serial"

    def __post_init__(self) -> None:
        if not self.procs:
            raise InvalidSchedule(f"placement of {self.task!r} uses no processors")
        if len(set(self.procs)) != len(self.procs):
            raise InvalidSchedule(f"placement of {self.task!r} repeats a processor")
        if min(self.procs) < 0:
            raise InvalidSchedule(
                f"placement of {self.task!r} uses negative processor {min(self.procs)}"
            )
        if self.start < -_EPS or self.duration < -_EPS:
            raise InvalidSchedule(
                f"placement of {self.task!r} has negative start/duration "
                f"({self.start}, {self.duration})"
            )

    @property
    def end(self) -> float:
        """Relative finish time."""
        return self.start + self.duration

    @property
    def primary(self) -> int:
        """The processor charged for this placement's communication."""
        return self.procs[0]

    @property
    def workers(self) -> int:
        """Number of processors occupied."""
        return len(self.procs)


class IterationSchedule:
    """The schedule of one iteration (one stream timestamp) — a member of S.

    Placements are stored in start-time order; each task appears exactly
    once.

    A member of S kept by the search (:meth:`_from_rows`) holds the search's
    own rows instead: its latency and canonical key are the search's, and
    its :class:`Placement` objects are built, and validated, when
    ``placements`` (or anything read through it) is first asked for.
    """

    #: The search's rows ``(end, procs, start, duration, variant, key
    #: element)`` in start order, until ``placements`` is built from them.
    _rows: Optional[tuple[tuple, ...]] = None
    _key: Optional[tuple] = None

    def __init__(self, placements: Iterable[Placement], name: str = "iteration") -> None:
        self.placements: tuple[Placement, ...] = tuple(
            sorted(placements, key=lambda p: (p.start, p.task))
        )
        self.name = name
        self._by_task: dict[str, Placement] = {}
        for p in self.placements:
            if p.task in self._by_task:
                raise InvalidSchedule(f"task {p.task!r} placed twice in {name!r}")
            self._by_task[p.task] = p
        #: Time from iteration origin to the last placement's end.
        self.latency: float = max((p.end for p in self.placements), default=0.0)

    @classmethod
    def _from_rows(
        cls, rows: tuple[tuple, ...], key: tuple, latency: float, name: str
    ) -> "IterationSchedule":
        """A kept search leaf: ``rows`` in start order, each ``(end, procs,
        start, duration, variant, key element)`` with ``end = start +
        duration`` and the key element this placement's entry of
        :meth:`canonical_key`; ``key`` is those elements in order and
        ``latency`` the largest end."""
        self = cls.__new__(cls)
        self._rows, self._key = rows, key
        self.name, self.latency = name, latency
        return self

    @cached_property
    def placements(self) -> tuple[Placement, ...]:
        placements = tuple(
            Placement(elem[0], procs, start, dur, variant=label)
            for _end, procs, start, dur, label, elem in self._rows
        )
        del self._rows  # the placements stand for them from here on
        return placements

    @cached_property
    def _by_task(self) -> dict[str, Placement]:
        return {p.task: p for p in self.placements}

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self):
        return iter(self.placements)

    def placement(self, task: str) -> Placement:
        """The placement of ``task``."""
        try:
            return self._by_task[task]
        except KeyError:
            raise InvalidSchedule(f"task {task!r} not in schedule {self.name!r}") from None

    def __contains__(self, task: str) -> bool:
        return task in self._by_task

    @property
    def span(self) -> float:
        """Latency measured from the first placement's start."""
        if not self.placements:
            return 0.0
        return self.latency - min(p.start for p in self.placements)

    def procs_used(self) -> set[int]:
        """All processors any placement touches."""
        out: set[int] = set()
        for p in self.placements:
            out.update(p.procs)
        return out

    def busy_area(self) -> float:
        """Total processor-seconds consumed by one iteration."""
        return sum(p.duration * p.workers for p in self.placements)

    def idle_fraction(self, n_procs: Optional[int] = None) -> float:
        """Fraction of the latency x procs rectangle left idle.

        The paper trades idle time for latency (Figure 5a "creates idle
        time and reduces throughput"); this quantifies that trade.
        """
        procs = n_procs if n_procs is not None else len(self.procs_used())
        if procs == 0 or self.latency <= 0:
            return 0.0
        return 1.0 - self.busy_area() / (procs * self.latency)

    def busy_spans(self) -> list[tuple[int, float, float]]:
        """``(processor, start, end)`` of every placement of positive duration,
        one per processor it occupies, in start order."""
        if self._rows is not None:
            return [
                (proc, start, end)
                for end, procs, start, dur, _label, _elem in self._rows
                if dur > 0
                for proc in procs
            ]
        return [
            (proc, p.start, p.end)
            for p in self.placements
            if p.duration > 0
            for proc in p.procs
        ]

    def canonical_key(self) -> tuple:
        """A hashable identity used to deduplicate the set S."""
        if self._key is not None:
            return self._key
        return tuple(
            (p.task, p.procs, round(p.start, 12), round(p.duration, 12), p.variant)
            for p in self.placements
        )

    # -- validation ---------------------------------------------------------------

    def validate(
        self,
        graph: Union[TaskGraph, "SearchProblem"],
        state: State,
        cluster: ClusterSpec,
        comm: Optional[CommModel] = None,
    ) -> None:
        """Raise :class:`~repro.errors.InvalidSchedule` on any violation.

        ``graph`` is read through ``task_names``, ``predecessors(name)``
        and ``comm_bytes(pred, name, state)`` only, so the
        :class:`~repro.core.enumerate.SearchProblem` snapshot of a graph
        stands in for it (the off-line solve path holds nothing else) and
        gives the same verdict and the same message.

        Checks performed:

        1. every graph task is placed exactly once, on existing processors;
        2. no two placements overlap on a processor;
        3. precedence with communication: for every streaming edge
           ``u -> v``, ``start(v) >= end(u) + comm(bytes, primary(u),
           primary(v))``.
        """
        names = set(graph.task_names)
        missing = names - set(self._by_task)
        extra = set(self._by_task) - names
        if missing:
            raise InvalidSchedule(f"schedule {self.name!r} misses tasks {sorted(missing)}")
        if extra:
            raise InvalidSchedule(f"schedule {self.name!r} has unknown tasks {sorted(extra)}")
        n_procs = cluster.total_processors
        for p in self.placements:
            for proc in p.procs:
                if not 0 <= proc < n_procs:
                    raise InvalidSchedule(
                        f"placement of {p.task!r} uses processor {proc} "
                        f"outside 0..{n_procs - 1}"
                    )
        # Resource exclusivity.
        by_proc: dict[int, list[Placement]] = {}
        for p in self.placements:
            for proc in p.procs:
                by_proc.setdefault(proc, []).append(p)
        for proc, plist in by_proc.items():
            plist.sort(key=lambda p: p.start)
            for a, b in zip(plist, plist[1:]):
                if b.start < a.end - _EPS:
                    raise InvalidSchedule(
                        f"processor {proc}: {a.task!r} [{a.start:g},{a.end:g}) overlaps "
                        f"{b.task!r} [{b.start:g},{b.end:g})"
                    )
        # Precedence with communication delay, in the schedule's own
        # (start-time) order: the first violation reported does not depend
        # on the order ``graph`` happens to list its tasks in.
        for v in self.placements:
            name = v.task
            for pred in graph.predecessors(name):
                u = self._by_task[pred]
                delay = 0.0
                if comm is not None:
                    nbytes = graph.comm_bytes(pred, name, state)
                    delay = comm.transfer_time(nbytes, u.primary, v.primary)
                if v.start < u.end + delay - _EPS:
                    raise InvalidSchedule(
                        f"precedence violated: {name!r} starts at {v.start:g} but "
                        f"{pred!r} ends at {u.end:g} (+{delay:g}s comm)"
                    )

    def __repr__(self) -> str:
        return (
            f"IterationSchedule({self.name!r}, tasks={len(self.placements)}, "
            f"latency={self.latency:.4g})"
        )


class PipelinedSchedule:
    """The multi-iteration schedule M: iteration pattern x initiation interval.

    Iteration ``k`` (stream timestamp ``k``) executes the base pattern with
    every processor index rotated by ``k * shift (mod P)`` and every time
    shifted by ``k * period``.
    """

    def __init__(
        self,
        iteration: IterationSchedule,
        period: float,
        shift: int,
        n_procs: int,
        name: str = "pipelined",
    ) -> None:
        if period <= 0:
            raise InvalidSchedule(f"initiation interval must be positive, got {period}")
        if n_procs < 1:
            raise InvalidSchedule(f"n_procs must be >= 1, got {n_procs}")
        if not 0 <= shift < n_procs:
            raise InvalidSchedule(f"shift {shift} out of range 0..{n_procs - 1}")
        used = iteration.procs_used()
        if used and max(used) >= n_procs:
            raise InvalidSchedule(
                f"iteration uses processor {max(used)} but n_procs={n_procs}"
            )
        self.iteration = iteration
        self.period = float(period)
        self.shift = int(shift)
        self.n_procs = int(n_procs)
        self.name = name

    @property
    def latency(self) -> float:
        """Per-timestamp latency (identical for every iteration)."""
        return self.iteration.latency

    @property
    def throughput(self) -> float:
        """Completed timestamps per second: ``1 / period``."""
        return 1.0 / self.period

    def proc_for(self, proc: int, k: int) -> int:
        """Physical processor executing base-processor ``proc`` in iteration ``k``."""
        return (proc + k * self.shift) % self.n_procs

    def instantiate(self, k: int) -> list[Placement]:
        """Absolute placements for iteration ``k`` (timestamp ``k``)."""
        offset = k * self.period
        out = []
        for p in self.iteration.placements:
            out.append(
                Placement(
                    task=p.task,
                    procs=tuple(self.proc_for(q, k) for q in p.procs),
                    start=p.start + offset,
                    duration=p.duration,
                    variant=p.variant,
                )
            )
        return out

    def validate_conflict_free(self, iterations: Optional[int] = None) -> None:
        """Check that no two iterations collide on any processor.

        Checks iteration 0 against iterations ``1..K``, ``K = floor(L/II)
        + 1``; by periodicity this covers all pairs.  Iteration ``k``
        starts ``k * II`` after iteration 0 (no placement starts before
        ``-ε``), and iteration 0 is over by ``L``, so once ``k * II >= L``
        it cannot collide: ``K`` is one past the last iteration that can,
        a full ``II`` of margin against rounding.  The checked iterations
        go up in ``k``, so the collision reported is the first there is.
        A zero-length placement occupies no processor time and cannot
        collide.  Iteration ``k`` is not instantiated: on processor ``q``
        it runs base processor ``(q - k * shift) % P``'s spans shifted by
        ``k * II``, and those are held against iteration 0's spans on
        ``q``.
        """
        P = self.n_procs
        placed = [p for p in self.iteration.placements if p.duration > 0]
        if not placed:
            return
        K = iterations
        if K is None:
            K = int(self.latency / self.period) + 1
        # Iteration 0's (start, duration, end) on each processor; adding an
        # iteration's offset, 0.0 for iteration 0, turns a start of -0.0
        # into 0.0.
        spans: list[list[tuple[float, float, float]]] = [[] for _ in range(P)]
        for p in placed:
            start = p.start + 0.0
            span = (start, p.duration, start + p.duration)
            for q in p.procs:
                spans[q].append(span)
        busy = [q for q in range(P) if spans[q]]
        for k in range(1, K + 1):
            r = (k * self.shift) % P
            off = k * self.period
            for q in busy:
                # Iteration k runs base processor (q - r) % P's spans on q.
                for b_base, b_dur, _ in spans[(q - r) % P]:
                    b_start = b_base + off
                    b_end = b_start + b_dur
                    for a_start, _, a_end in spans[q]:
                        if a_start < b_end - _EPS and b_start < a_end - _EPS:
                            self._report_collision(placed, k)

    def _report_collision(self, placed: list[Placement], k: int) -> None:
        """Raise the first collision between iterations 0 and ``k``.

        Placement pairs are tried in order — ``a`` of iteration 0 by
        placement, then ``b`` of iteration ``k`` — so the pair named, and
        every processor it shares, do not depend on how the collision was
        found.
        """
        P = self.n_procs
        everywhere = (1 << P) - 1
        r = (k * self.shift) % P
        off = k * self.period
        rows = [(p.task, sum(1 << q for q in p.procs), p.start + 0.0, p.duration)
                for p in placed]
        for a_task, a_mask, a_start, a_dur in rows:
            for b_task, b_mask, b_base, b_dur in rows:
                common = a_mask & (b_mask << r | b_mask >> (P - r)) & everywhere
                if not common:
                    continue
                a_end = a_start + a_dur
                b_start = b_base + off
                b_end = b_start + b_dur
                if a_start < b_end - _EPS and b_start < a_end - _EPS:
                    raise InvalidSchedule(
                        f"iterations 0 and {k} collide: {a_task!r} "
                        f"[{a_start:g},{a_end:g}) vs {b_task!r} "
                        f"[{b_start:g},{b_end:g}) on procs "
                        f"{[q for q in range(P) if common >> q & 1]}"
                    )

    def __repr__(self) -> str:
        return (
            f"PipelinedSchedule({self.name!r}, latency={self.latency:.4g}, "
            f"II={self.period:.4g}, shift={self.shift})"
        )
