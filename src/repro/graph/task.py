"""Tasks and their data-parallel variants.

A :class:`Task` is one oval of Figure 2: a named operation that gets items
from input channels, computes for a state-dependent time, and puts items on
output channels.  Tasks optionally carry a :class:`DataParallelSpec`
describing how they can be split across workers — the Figure 6 algorithm
treats each (task, worker-count) pair as a schedulable *variant*
(:class:`Variant`).

The variant cost model is intentionally simple but captures every effect
Table 1 exhibits: perfect work division, a per-chunk dispatch overhead, a
per-chunk setup cost proportional to the models each chunk must load, and
split/join serial sections.  Chunk counts need not equal worker counts —
32 chunks on 4 workers run in 8 waves, exactly the (FP=4, MP=8) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import CostModelError, GraphError
from repro.graph.cost import CostFn, as_cost
from repro.state import State

__all__ = ["Variant", "DataParallelSpec", "Task"]


@dataclass(frozen=True)
class Variant:
    """One schedulable shape of a task: ``workers`` processors for ``duration``.

    ``label`` records the decomposition behind the numbers (e.g. "FP=4,MP=8")
    so schedules stay explainable; ``chunks`` is the total chunk count.
    """

    task: str
    workers: int
    duration: float
    label: str = ""
    chunks: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise GraphError(f"variant of {self.task!r} needs >= 1 worker")
        if not math.isfinite(self.duration) or self.duration < 0:
            raise GraphError(f"variant of {self.task!r} has invalid duration {self.duration}")

    @property
    def area(self) -> float:
        """Processor-seconds consumed — the scheduling 'footprint'."""
        return self.workers * self.duration


class DataParallelSpec:
    """How a task may be decomposed across data-parallel workers.

    Parameters
    ----------
    worker_counts:
        Worker counts the scheduler may choose among (1 is always allowed
        implicitly via the task's serial cost).
    chunk_cost:
        ``(state, n_chunks) -> seconds`` for ONE chunk when the work is cut
        into ``n_chunks`` equal chunks.  Defaults to perfect division of the
        task's serial cost (set by :class:`Task`).
    split_cost / join_cost:
        Serial overhead of the splitter and joiner per invocation.
    per_chunk_overhead:
        Dispatch + result-collection cost added per chunk (paid by workers).
    chunks_for:
        ``(state, workers) -> n_chunks``; defaults to one chunk per worker.
        Decomposition planners (Table 1) override this to model FP x MP.
    """

    def __init__(
        self,
        worker_counts: Sequence[int],
        chunk_cost: Optional[Callable[[State, int], float]] = None,
        split_cost: float = 0.0,
        join_cost: float = 0.0,
        per_chunk_overhead: float = 0.0,
        chunks_for: Optional[Callable[[State, int], int]] = None,
    ) -> None:
        counts = sorted(set(int(w) for w in worker_counts))
        if not counts or counts[0] < 1:
            raise GraphError(f"worker_counts must be positive integers, got {worker_counts}")
        if split_cost < 0 or join_cost < 0 or per_chunk_overhead < 0:
            raise GraphError("data-parallel overheads must be non-negative")
        self.worker_counts = counts
        self.chunk_cost = chunk_cost
        self.split_cost = float(split_cost)
        self.join_cost = float(join_cost)
        self.per_chunk_overhead = float(per_chunk_overhead)
        self.chunks_for = chunks_for

    def duration(self, task: "Task", state: State, workers: int) -> float:
        """Makespan of the decomposed task on ``workers`` processors."""
        if workers < 1:
            raise GraphError(f"workers must be >= 1, got {workers}")
        n_chunks = self.chunks_for(state, workers) if self.chunks_for else workers
        if n_chunks < 1:
            raise CostModelError(f"chunks_for returned {n_chunks} for {state}")
        if self.chunk_cost is not None:
            one_chunk = self.chunk_cost(state, n_chunks)
        else:
            one_chunk = task.cost(state) / n_chunks
        if not math.isfinite(one_chunk) or one_chunk < 0:
            raise CostModelError(
                f"chunk cost {one_chunk!r} for task {task.name!r} in {state}"
            )
        waves = math.ceil(n_chunks / workers)
        per_worker_chunks = waves  # chunks the critical-path worker executes
        body = per_worker_chunks * (one_chunk + self.per_chunk_overhead)
        return self.split_cost + body + self.join_cost


class Task:
    """One node of the macro-dataflow graph.

    Parameters
    ----------
    name:
        Unique task name ("T1".."T5" for the tracker).
    cost:
        Serial execution-time model (``State -> seconds`` or a constant).
    inputs / outputs:
        Names of channels this task gets from / puts to.
    data_parallel:
        Optional :class:`DataParallelSpec`.
    period:
        For source tasks only: the firing period in seconds (the paper's
        "primary tuning variable" — the digitizer period).  None means the
        task fires as soon as its inputs allow.
    compute:
        Optional real kernel ``(state, inputs, ts) -> outputs`` for frame
        ``ts``: ``inputs`` maps each input channel to its item (a windowed
        one to a tuple, below) and the result each output channel to its
        value.  A kernel is a function of its arguments and keeps no frame
        state, so a run that starts again reproduces its frames.  Both live
        substrates run it; the simulator ignores it.
    compute_chunk / compute_join:
        Optional data-parallel kernel pair, run by a placement of a dpN
        variant in the lanes its processors hold:
        ``compute_chunk(state, inputs, chunk_index, n_chunks) -> partial``
        runs one chunk of the work and ``compute_join(state, inputs,
        partials) -> outputs_dict`` merges the ``n_chunks`` partial
        results.  A task with a serial ``compute`` but no chunk pair cannot
        be placed wider than one processor on a live substrate
        (:func:`~repro.runtime.live.schedule_slots` refuses it).
    windows:
        ``{channel: w}`` for streaming inputs of which the task holds the
        last ``w`` items: at frame ``ts`` it reads ``ts - w + 1 … ts``
        (clipped at 0) as a tuple, oldest first, and consumes ``ts - w +
        1``.  Change detection reads ``windows={"frame": 2}``: the previous
        frame is an STM read, not a kernel's memory.  The cost model
        charges no transfer for the earlier items.
    """

    def __init__(
        self,
        name: str,
        cost: "float | CostFn",
        inputs: Sequence[str] = (),
        outputs: Sequence[str] = (),
        data_parallel: Optional[DataParallelSpec] = None,
        period: Optional[float] = None,
        compute: Optional[Callable[..., dict]] = None,
        compute_chunk: Optional[Callable[..., object]] = None,
        compute_join: Optional[Callable[..., dict]] = None,
        windows: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise GraphError(f"task needs a non-empty string name, got {name!r}")
        if period is not None and period <= 0:
            raise GraphError(f"task {name!r}: period must be positive, got {period}")
        dup_in = set(inputs) & set(outputs)
        if dup_in:
            raise GraphError(f"task {name!r}: channels {sorted(dup_in)} are both input and output")
        if len(set(inputs)) != len(tuple(inputs)) or len(set(outputs)) != len(tuple(outputs)):
            raise GraphError(f"task {name!r}: duplicate channel in inputs/outputs")
        windows = dict(windows or {})
        for ch, w in windows.items():
            if ch not in inputs or type(w) is not int or w < 1:
                raise GraphError(f"task {name!r}: window {w!r} on {ch!r} needs an "
                                 "input channel and an integer >= 1")
        self.name = name
        self.cost: CostFn = as_cost(cost)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.data_parallel = data_parallel
        self.period = period
        self.compute = compute
        self.compute_chunk = compute_chunk
        self.compute_join = compute_join
        self.windows = windows
        if compute_chunk is not None and compute_join is None:
            raise GraphError(
                f"task {name!r}: compute_chunk without compute_join"
            )

    def replace(self, **changes) -> "Task":
        """A copy of this task with the named constructor fields changed.

        Every field not named is carried over — the kernels and the
        windows included, so a derived graph cannot silently lose its
        chunk pair or read a windowed input as a single item.
        """
        fields = dict(
            name=self.name,
            cost=self.cost,
            inputs=self.inputs,
            outputs=self.outputs,
            data_parallel=self.data_parallel,
            period=self.period,
            compute=self.compute,
            compute_chunk=self.compute_chunk,
            compute_join=self.compute_join,
            windows=self.windows,
        )
        return Task(**{**fields, **changes})

    # -- variants ---------------------------------------------------------

    def variants(self, state: State, max_workers: Optional[int] = None) -> list[Variant]:
        """All schedulable variants of this task in ``state``.

        Always includes the serial variant.  Data-parallel variants are
        produced for each allowed worker count not exceeding
        ``max_workers``.
        """
        out = [Variant(self.name, 1, self.cost(state), label="serial")]
        if self.data_parallel is None:
            return out
        for w in self.data_parallel.worker_counts:
            if w == 1:
                continue
            if max_workers is not None and w > max_workers:
                continue
            dur = self.data_parallel.duration(self, state, w)
            n_chunks = (
                self.data_parallel.chunks_for(state, w)
                if self.data_parallel.chunks_for
                else w
            )
            out.append(Variant(self.name, w, dur, label=f"dp{w}", chunks=n_chunks))
        return out

    def best_variant(self, state: State, max_workers: Optional[int] = None) -> Variant:
        """The minimum-duration variant (ties broken toward fewer workers)."""
        return min(
            self.variants(state, max_workers), key=lambda v: (v.duration, v.workers)
        )

    @property
    def is_source(self) -> bool:
        """True if the task reads no streaming channels."""
        return not self.inputs

    @property
    def is_sink(self) -> bool:
        """True if the task writes no channels."""
        return not self.outputs

    def __repr__(self) -> str:
        dp = f", dp={self.data_parallel.worker_counts}" if self.data_parallel else ""
        return f"Task({self.name!r}, in={list(self.inputs)}, out={list(self.outputs)}{dp})"
