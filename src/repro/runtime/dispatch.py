"""Flat dispatch tables for the hot execution loops.

The executors used to re-derive the same facts on every quantum: the sim
loop called :meth:`PipelinedSchedule.instantiate` per iteration (building
validated :class:`Placement` objects and re-doing the rotation modulo per
processor), and the live runtimes asked ``graph.channel(ch).static`` per
timestamp per input.  Both are dictionary walks over immutable data.

This module compiles those walks once, up front:

* :class:`TaskPlan` — per-task channel classification (static inputs,
  streaming inputs, outputs) as plain tuples, so a runtime's frame loop
  iterates precomputed name lists instead of consulting the graph;
* :class:`FlatSchedule` — a :class:`PipelinedSchedule` lowered to
  preallocated numpy arrays (starts, durations, flattened processor
  lists with offsets).  ``instantiate(k)`` returns lightweight rows with
  the rotation ``(proc + k * shift) % n_procs`` applied in one vectorized
  operation over the whole iteration, and ``primary(task, k)`` answers
  the per-edge primary-processor query from an int array.

Every executor substrate dispatches through these tables: the sim loop
through both, the threaded runtime and the process runtime's workers
through the :class:`TaskPlan` their shared frame loop
(:func:`repro.runtime.live.run_frames`) is handed; conformance tests pin
their equivalence to the original object walks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

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
    iteration, plus the rotated ``primary`` (== ``procs[0]``).
    """

    __slots__ = ("task", "procs", "start", "duration", "variant", "primary")

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
        self.primary = procs[0]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def workers(self) -> int:
        return len(self.procs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatPlacement({self.task!r}, procs={self.procs}, "
            f"start={self.start:g}, dur={self.duration:g}, {self.variant!r})"
        )


class FlatSchedule:
    """A :class:`PipelinedSchedule` compiled to flat arrays.

    The base iteration's placements are lowered once into:

    * ``starts`` / ``durations`` — float64 arrays, placement order;
    * a single flattened int64 processor array plus per-placement
      offsets (placement ``i`` owns ``flat_procs[offsets[i]:offsets[i+1]]``);
    * ``primaries`` — int64 array of each placement's base primary.

    ``instantiate(k)`` applies the cyclic rotation and time offset to the
    whole iteration with two vectorized numpy expressions and yields
    :class:`FlatPlacement` rows; ``primary(task, k)`` and
    ``procs_for(task, k)`` answer point queries without building rows at
    all.  Results are exactly those of
    :meth:`PipelinedSchedule.instantiate` / ``proc_for`` — pinned by
    ``tests/runtime/test_dispatch.py``.
    """

    def __init__(self, schedule: PipelinedSchedule) -> None:
        placements = schedule.iteration.placements
        self.schedule = schedule
        self.period = schedule.period
        self.shift = schedule.shift
        self.n_procs = schedule.n_procs
        self.tasks: tuple[str, ...] = tuple(p.task for p in placements)
        self.variants: tuple[str, ...] = tuple(p.variant for p in placements)
        self.starts = np.array([p.start for p in placements], dtype=np.float64)
        self.durations = np.array([p.duration for p in placements], dtype=np.float64)
        offsets = [0]
        flat: list[int] = []
        for p in placements:
            flat.extend(p.procs)
            offsets.append(len(flat))
        self.flat_procs = np.array(flat, dtype=np.int64)
        self.offsets = np.array(offsets, dtype=np.int64)
        self.primaries = np.array([p.procs[0] for p in placements], dtype=np.int64)
        self._row_of = {task: i for i, task in enumerate(self.tasks)}

    def __len__(self) -> int:
        return len(self.tasks)

    def row(self, task: str) -> int:
        """Placement-row index of ``task`` (raises ``KeyError`` if absent)."""
        return self._row_of[task]

    def primary(self, task: str, k: int) -> int:
        """Rotated primary processor of ``task`` in iteration ``k``."""
        base = int(self.primaries[self._row_of[task]])
        return (base + k * self.shift) % self.n_procs

    def procs_for(self, task: str, k: int) -> tuple[int, ...]:
        """Rotated processor tuple of ``task`` in iteration ``k``."""
        i = self._row_of[task]
        band = self.flat_procs[self.offsets[i]: self.offsets[i + 1]]
        return tuple(((band + k * self.shift) % self.n_procs).tolist())

    def instantiate(self, k: int) -> list[FlatPlacement]:
        """Absolute rows for iteration ``k`` — two vectorized ops, no
        :class:`Placement` construction."""
        starts = self.starts + k * self.period
        rotated = (self.flat_procs + k * self.shift) % self.n_procs
        rot_list = rotated.tolist()
        starts_list = starts.tolist()
        durs = self.durations.tolist()
        offs = self.offsets.tolist()
        return [
            FlatPlacement(
                task=self.tasks[i],
                procs=tuple(rot_list[offs[i]: offs[i + 1]]),
                start=starts_list[i],
                duration=durs[i],
                variant=self.variants[i],
            )
            for i in range(len(self.tasks))
        ]

    def iter_iterations(self, iterations: int) -> Iterable[tuple[int, list[FlatPlacement]]]:
        """Yield ``(k, rows)`` for ``k in range(iterations)``."""
        for k in range(iterations):
            yield k, self.instantiate(k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatSchedule(tasks={len(self.tasks)}, period={self.period:g}, "
            f"shift={self.shift}, n_procs={self.n_procs})"
        )
