"""Flat dispatch tables for the hot execution loops.

The executors used to re-derive the same facts on every quantum: the sim
loop called :meth:`PipelinedSchedule.instantiate` per iteration (building
validated :class:`Placement` objects), and the live runtimes asked
``graph.channel(ch).static`` per timestamp per input.  Both are walks over
immutable data.

This module compiles those walks once, up front:

* :class:`TaskPlan` — per-task channel classification (static inputs,
  streaming inputs, outputs) as plain tuples, so a runtime's frame loop
  iterates precomputed name lists instead of consulting the graph;
* :class:`FlatSchedule` — a :class:`PipelinedSchedule` lowered once to
  plain tuples.  ``instantiate(k)`` is one comprehension over them that
  returns unvalidated :class:`FlatPlacement` rows (Figure 6 step 3: the
  same pattern every II, processors rotated).

:class:`FlatSchedule` is the one schedule lowering under both
schedule-driven DES executors (:class:`~repro.runtime.static_exec.
StaticExecutor` and :class:`~repro.faults.runner.FaultTolerantExecutor`);
the threaded runtime and the process runtime's workers dispatch through
the :class:`TaskPlan` their shared frame loop
(:func:`repro.runtime.live.run_frames`) is handed.  The rows are plain
Python on purpose: at five placements on eight processors a numpy
"vectorised" rotation cost twice what the comprehension does (ISSUE 18's
measurement), so numpy is not imported here.
"""

from __future__ import annotations

from repro.core.schedule import PipelinedSchedule
from repro.graph.taskgraph import TaskGraph

__all__ = ["TaskPlan", "build_task_plans", "FlatPlacement", "FlatSchedule"]


class TaskPlan:
    """Precompiled channel classification for one task.

    Attributes
    ----------
    name:
        Task name.
    static_inputs / stream_inputs:
        Input channel names split by the ``static`` flag, in the task's
        declared input order (so merged-input dict construction is
        deterministic across substrates).
    outputs:
        Output channel names, declared order.
    index:
        Position of the task in ``graph.tasks`` — the stable integer id
        the runtimes use for span/processor bookkeeping.
    is_source:
        Whether the task has no streaming inputs (drives digitize times).
    """

    __slots__ = ("name", "static_inputs", "stream_inputs", "outputs", "index", "is_source")

    def __init__(
        self,
        name: str,
        static_inputs: tuple[str, ...],
        stream_inputs: tuple[str, ...],
        outputs: tuple[str, ...],
        index: int,
        is_source: bool,
    ) -> None:
        self.name = name
        self.static_inputs = static_inputs
        self.stream_inputs = stream_inputs
        self.outputs = outputs
        self.index = index
        self.is_source = is_source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskPlan({self.name!r}, statics={self.static_inputs}, "
            f"streams={self.stream_inputs}, outputs={self.outputs})"
        )


def build_task_plans(graph: TaskGraph) -> dict[str, TaskPlan]:
    """Compile one :class:`TaskPlan` per task of ``graph``.

    A single pass over the graph replaces the per-timestamp
    ``graph.channel(ch).static`` queries in every runtime's frame loop.
    """
    plans: dict[str, TaskPlan] = {}
    for index, task in enumerate(graph.tasks):
        statics = tuple(ch for ch in task.inputs if graph.channel(ch).static)
        streams = tuple(ch for ch in task.inputs if not graph.channel(ch).static)
        plans[task.name] = TaskPlan(
            name=task.name,
            static_inputs=statics,
            stream_inputs=streams,
            outputs=tuple(task.outputs),
            index=index,
            is_source=task.is_source,
        )
    return plans


class FlatPlacement:
    """One row of an instantiated iteration — a :class:`Placement` look-alike
    without the frozen-dataclass validation cost.

    Carries absolute ``start`` and already-rotated ``procs`` for its
    iteration.  A plain mutable row: the fault runner rewrites ``procs``
    (shape → physical processors) and ``start`` (epoch offset) in place.
    """

    __slots__ = ("task", "procs", "start", "duration", "variant")

    def __init__(
        self,
        task: str,
        procs: tuple[int, ...],
        start: float,
        duration: float,
        variant: str,
    ) -> None:
        self.task = task
        self.procs = procs
        self.start = start
        self.duration = duration
        self.variant = variant

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatPlacement({self.task!r}, procs={self.procs}, "
            f"start={self.start:g}, dur={self.duration:g}, {self.variant!r})"
        )


class FlatSchedule:
    """A :class:`PipelinedSchedule` compiled once to plain tuples.

    ``rows`` holds the base iteration as ``(task, procs, start, duration,
    variant)`` tuples in placement order.  ``instantiate(k)`` applies
    exactly :meth:`PipelinedSchedule.instantiate`'s arithmetic —
    ``start + k * period`` and ``(q + k * shift) % n_procs``, the latter
    through the ``n_procs`` rotations of the rows tabulated at construction
    — so its rows are bitwise those of the reference (pinned by
    ``tests/runtime/test_dispatch.py``), minus the validated
    :class:`Placement` construction.
    """

    def __init__(self, schedule: PipelinedSchedule) -> None:
        placements = schedule.iteration.placements
        self.period = schedule.period
        self.shift = schedule.shift
        self.n_procs = schedule.n_procs
        self.rows = tuple(
            (p.task, p.procs, p.start, p.duration, p.variant) for p in placements
        )
        # The rows' processors under each rotation ``k * shift % n_procs``.
        self._rotated = [
            tuple(tuple([(q + r) % self.n_procs for q in row[1]]) for row in self.rows)
            for r in range(self.n_procs)
        ]

    def __len__(self) -> int:
        return len(self.rows)

    def instantiate(self, k: int) -> list[FlatPlacement]:
        """Absolute rows for iteration ``k`` — no :class:`Placement`
        construction."""
        offset = k * self.period
        return [
            FlatPlacement(task, procs, start + offset, duration, variant)
            for (task, _base, start, duration, variant), procs in zip(
                self.rows, self._rotated[k * self.shift % self.n_procs]
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatSchedule(tasks={len(self.rows)}, period={self.period:g}, "
            f"shift={self.shift}, n_procs={self.n_procs})"
        )
