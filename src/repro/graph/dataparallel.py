"""Expansion of a data-parallel task into the Figure 9 subgraph.

"The key idea is that any node in the task graph can be replaced with a
subgraph consisting of multiple worker threads that exactly duplicates the
original task's behavior on its input and output channels."  (§6.2)

:func:`expand_data_parallel` performs that replacement at the graph level:

    T   ==>   T.split --work.i-->  T.w0..T.w{n-1}  --done.i--> T.join

* the splitter consumes exactly the original task's inputs,
* the joiner produces exactly the original task's outputs,
* worker ``i`` executes its share of the chunks (round-robin assignment of
  ``n_chunks`` chunks over ``workers`` workers, matching
  :meth:`~repro.graph.task.DataParallelSpec.duration`'s wave model).

The expanded graph is a plain :class:`~repro.graph.taskgraph.TaskGraph`, so
every scheduler and the runtime work on it unchanged — which is the point:
data parallelism integrates into the task-parallel framework rather than
being a special case.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DecompositionError
from repro.graph.channel import ChannelSpec
from repro.graph.cost import CallableCost, ConstantCost
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.state import State

__all__ = ["expand_data_parallel", "worker_chunk_counts"]


def worker_chunk_counts(n_chunks: int, workers: int) -> list[int]:
    """Chunks executed by each worker under round-robin dispatch.

    >>> worker_chunk_counts(32, 4)
    [8, 8, 8, 8]
    >>> worker_chunk_counts(5, 3)
    [2, 2, 1]
    """
    if n_chunks < 1 or workers < 1:
        raise DecompositionError(
            f"need positive chunks/workers, got {n_chunks}/{workers}"
        )
    base, extra = divmod(n_chunks, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def expand_data_parallel(
    graph: TaskGraph,
    task_name: str,
    workers: int,
    n_chunks: Optional[int] = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Return a new graph with ``task_name`` replaced by splitter/workers/joiner.

    Parameters
    ----------
    graph:
        The source graph (not modified).
    task_name:
        The task to decompose; must carry a
        :class:`~repro.graph.task.DataParallelSpec`.
    workers:
        Number of worker tasks to create (must be one of the spec's allowed
        counts).
    n_chunks:
        Total chunk count; defaults to the spec's ``chunks_for`` (or
        ``workers``).  May exceed ``workers`` — workers then execute
        multiple waves.
    name:
        Name for the new graph.
    """
    original = graph.task(task_name)
    spec = original.data_parallel
    if spec is None:
        raise DecompositionError(f"task {task_name!r} has no DataParallelSpec")
    if workers not in spec.worker_counts and workers != 1:
        raise DecompositionError(
            f"task {task_name!r} allows worker counts {spec.worker_counts}, got {workers}"
        )

    out = TaskGraph(name or f"{graph.name}/dp[{task_name}x{workers}]")
    for ch in graph.channels:
        out.add_channel(ch)
    for t in graph.tasks:
        if t.name != task_name:
            out.add_task(t)

    def chunk_total(state: State) -> int:
        if n_chunks is not None:
            return n_chunks
        if spec.chunks_for is not None:
            return spec.chunks_for(state, workers)
        return workers

    # Splitter: consumes the original inputs, emits one work channel per worker.
    work_channels = [f"{task_name}.work{i}" for i in range(workers)]
    done_channels = [f"{task_name}.done{i}" for i in range(workers)]
    for chname in (*work_channels, *done_channels):
        out.add_channel(ChannelSpec(chname, item_bytes=0))

    out.add_task(
        Task(
            f"{task_name}.split",
            cost=ConstantCost(spec.split_cost),
            inputs=original.inputs,
            outputs=work_channels,
        )
    )

    def worker_cost(index: int):
        def cost(state: State) -> float:
            total = chunk_total(state)
            if total < 1:
                raise DecompositionError(f"chunk count {total} for {state}")
            my_chunks = worker_chunk_counts(total, workers)[index]
            if my_chunks == 0:
                return 0.0
            if spec.chunk_cost is not None:
                one = spec.chunk_cost(state, total)
            else:
                one = original.cost(state) / total
            return my_chunks * (one + spec.per_chunk_overhead)

        return cost

    for i in range(workers):
        out.add_task(
            Task(
                f"{task_name}.w{i}",
                cost=CallableCost(worker_cost(i), label=f"{task_name}.w{i}"),
                inputs=[work_channels[i]],
                outputs=[done_channels[i]],
            )
        )

    out.add_task(
        Task(
            f"{task_name}.join",
            cost=ConstantCost(spec.join_cost),
            inputs=done_channels,
            outputs=original.outputs,
        )
    )
    out.validate()
    return out
