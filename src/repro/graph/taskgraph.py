"""The task-graph container: validation, precedence, traversal.

A :class:`TaskGraph` owns a set of :class:`~repro.graph.task.Task` and
:class:`~repro.graph.channel.ChannelSpec` objects and derives the task-level
precedence relation from channel connectivity: task *a* precedes task *b*
when *a* produces a streaming (non-static) channel that *b* consumes.

Static channels (e.g. the tracker's Color Model) carry configuration and do
not induce precedence — they are readable at any time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

from repro.errors import (
    CycleError,
    DuplicateNameError,
    GraphError,
    UnknownNameError,
)
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.state import State

__all__ = ["TaskGraph"]

T = TypeVar("T")


class TaskGraph:
    """A validated macro-dataflow graph of tasks and channels.

    The structure every consumer asks about — who produces and consumes
    each channel, each task's successors and predecessors (a few look-ups
    in that), the channels between two tasks, the source and sink tasks,
    the topological order, and whether :meth:`validate` passed — is
    derived on first use and kept on the instance: a table build asks the
    same questions for every state and every entry of a graph that does
    not change, and a simulated run the same ones for every segment.  A
    caller's own tables of the structure (a runtime's task plans, the
    simulated world's edge labels) are kept the same way by
    :meth:`derived`.  :meth:`add_task`,
    :meth:`add_channel` and :meth:`remove_task` are the only writers of
    the graph and each drops everything derived (tasks and channel specs
    are themselves fixed once constructed).  Only answers are remembered,
    never failures: an invalid graph raises the same error on every call.
    Every query returns a fresh list, so a caller may mutate its result.

    >>> g = TaskGraph()
    >>> g.add_channel(ChannelSpec("c", item_bytes=100))
    >>> g.add_task(Task("producer", cost=1.0, outputs=["c"]))
    >>> g.add_task(Task("consumer", cost=2.0, inputs=["c"]))
    >>> g.validate()
    >>> g.topo_order()
    ['producer', 'consumer']
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._channels: dict[str, ChannelSpec] = {}
        self._forget()

    def _forget(self) -> None:
        """Drop everything derived from ``_tasks`` / ``_channels``."""
        # channel -> (producers, consumers), built for all channels at once
        self._wiring: Optional[dict[str, tuple[list[Task], list[Task]]]] = None
        # task -> its predecessor / successor names, built per task on first ask
        self._preds: dict[str, tuple[str, ...]] = {}
        self._succs: dict[str, tuple[str, ...]] = {}
        # (src, dst) -> the streaming channels between them, per pair on first ask
        self._between: dict[tuple[str, str], tuple[ChannelSpec, ...]] = {}
        self._sources: Optional[tuple[str, ...]] = None
        self._sinks: Optional[tuple[str, ...]] = None
        self._topo: Optional[list[str]] = None
        self._valid = False
        # derive -> derive(self), for derived()
        self._derived: dict[Callable[["TaskGraph"], Any], Any] = {}

    # -- construction ---------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Register a task; name must be fresh among tasks and channels."""
        if task.name in self._tasks or task.name in self._channels:
            raise DuplicateNameError(f"name {task.name!r} already used in graph {self.name!r}")
        self._tasks[task.name] = task
        self._forget()
        return task

    def add_channel(self, channel: ChannelSpec) -> ChannelSpec:
        """Register a channel; name must be fresh among tasks and channels."""
        if channel.name in self._channels or channel.name in self._tasks:
            raise DuplicateNameError(
                f"name {channel.name!r} already used in graph {self.name!r}"
            )
        self._channels[channel.name] = channel
        self._forget()
        return channel

    def remove_task(self, name: str) -> Task:
        """Remove and return a task."""
        try:
            task = self._tasks.pop(name)
        except KeyError:
            raise UnknownNameError(f"no task named {name!r}") from None
        self._forget()
        return task

    def with_tasks(self, name: str, changes: dict[str, dict]) -> "TaskGraph":
        """A validated copy named ``name``: the same channels, and each task
        ``changes`` names replaced by ``task.replace(**changes[task.name])``
        (the others as they are); a name that is no task is refused."""
        unknown = sorted(changes.keys() - self._tasks.keys())
        if unknown:
            raise UnknownNameError(f"no tasks named {unknown} in graph {self.name!r}")
        out = TaskGraph(name)
        for ch in self._channels.values():
            out.add_channel(ch)
        for t in self._tasks.values():
            out.add_task(t.replace(**changes[t.name]) if t.name in changes else t)
        out.validate()
        return out

    # -- lookup -----------------------------------------------------------------

    def task(self, name: str) -> Task:
        """The task named ``name``."""
        try:
            return self._tasks[name]
        except KeyError:
            raise UnknownNameError(f"no task named {name!r} in graph {self.name!r}") from None

    def channel(self, name: str) -> ChannelSpec:
        """The channel named ``name``."""
        try:
            return self._channels[name]
        except KeyError:
            raise UnknownNameError(f"no channel named {name!r} in graph {self.name!r}") from None

    @property
    def tasks(self) -> list[Task]:
        """Tasks in insertion order."""
        return list(self._tasks.values())

    @property
    def channels(self) -> list[ChannelSpec]:
        """Channels in insertion order."""
        return list(self._channels.values())

    @property
    def task_names(self) -> list[str]:
        return list(self._tasks)

    @property
    def channel_names(self) -> list[str]:
        return list(self._channels)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    # -- connectivity --------------------------------------------------------------

    def _ends(self, channel: str) -> tuple[Sequence[Task], Sequence[Task]]:
        """``channel``'s (producers, consumers), from one scan of the tasks."""
        self.channel(channel)
        wiring = self._wiring
        if wiring is None:
            wiring = {}
            for t in self._tasks.values():
                for ch in t.outputs:  # a Task lists a channel at most once
                    wiring.setdefault(ch, ([], []))[0].append(t)
                for ch in t.inputs:
                    wiring.setdefault(ch, ([], []))[1].append(t)
            self._wiring = wiring
        return wiring.get(channel, ((), ()))

    def producers(self, channel: str) -> list[Task]:
        """Tasks that put to ``channel``."""
        return list(self._ends(channel)[0])

    def consumers(self, channel: str) -> list[Task]:
        """Tasks that get from ``channel``."""
        return list(self._ends(channel)[1])

    def successors(self, task: str) -> list[str]:
        """Tasks consuming any streaming channel this task produces."""
        succs = self._succs.get(task)
        if succs is None:
            t = self.task(task)
            succs = self._succs[task] = tuple(dict.fromkeys(
                c.name
                for ch in t.outputs
                if not self.channel(ch).static
                for c in self._ends(ch)[1]
            ))
        return list(succs)

    def predecessors(self, task: str) -> list[str]:
        """Tasks producing any streaming channel this task consumes."""
        preds = self._preds.get(task)
        if preds is None:
            t = self.task(task)
            preds = self._preds[task] = tuple(dict.fromkeys(
                p.name
                for ch in t.inputs
                if not self.channel(ch).static
                for p in self._ends(ch)[0]
            ))
        return list(preds)

    def _channels_between(self, src: str, dst: str) -> tuple[ChannelSpec, ...]:
        between = self._between.get((src, dst))
        if between is None:
            s, d = self.task(src), self.task(dst)
            between = self._between[src, dst] = tuple(
                self._channels[ch]
                for ch in s.outputs
                if ch in d.inputs and not self._channels[ch].static
            )
        return between

    def channels_between(self, src: str, dst: str) -> list[ChannelSpec]:
        """Streaming channels produced by ``src`` and consumed by ``dst``."""
        return list(self._channels_between(src, dst))

    def comm_bytes(self, src: str, dst: str, state: State) -> int:
        """Bytes flowing from ``src`` to ``dst`` per timestamp in ``state``."""
        return sum(ch.item_size(state) for ch in self._channels_between(src, dst))

    def source_tasks(self) -> list[str]:
        """Tasks with no streaming inputs (the digitizer)."""
        if self._sources is None:
            self._sources = tuple(
                t.name
                for t in self._tasks.values()
                if all(self._channels[ch].static for ch in t.inputs) or not t.inputs
            )
        return list(self._sources)

    def sink_tasks(self) -> list[str]:
        """Tasks whose streaming outputs feed no other task."""
        if self._sinks is None:
            out = []
            for t in self._tasks.values():
                streaming_out = [ch for ch in t.outputs if not self._channels[ch].static]
                if all(not self._ends(ch)[1] for ch in streaming_out):
                    out.append(t.name)
            self._sinks = tuple(out)
        return list(self._sinks)

    def derived(self, derive: Callable[["TaskGraph"], T]) -> T:
        """``derive(self)``, computed on first ask and kept, under ``derive``
        itself, until a writer runs — for a caller's own table of the
        graph's structure (:func:`~repro.runtime.dispatch.build_task_plans`,
        the simulated world's edge labels and terminal channels), which a
        run would otherwise rebuild for every segment.  The value is
        shared by every caller: it must be read, never mutated.  A
        ``derive`` that raises is asked again next time."""
        try:
            return self._derived[derive]
        except KeyError:
            value = self._derived[derive] = derive(self)
            return value

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`~repro.errors.GraphError` on any structural problem.

        Checks: every referenced channel is declared; no window sits on a
        static channel; every streaming channel has exactly one producer
        (STM permits more, our application class uses single-writer
        streams); the precedence relation is acyclic; the graph has at
        least one source.
        """
        if self._valid:
            return
        for t in self._tasks.values():
            for ch in (*t.inputs, *t.outputs):
                if ch not in self._channels:
                    raise UnknownNameError(
                        f"task {t.name!r} references undeclared channel {ch!r}"
                    )
            if any(self._channels[ch].static for ch in t.windows):
                raise GraphError(f"task {t.name!r}: a window on a static channel")
        for ch in self._channels.values():
            if ch.static:
                continue
            prods, cons = self._ends(ch.name)
            if len(prods) == 0 and cons:
                raise GraphError(f"streaming channel {ch.name!r} has consumers but no producer")
            if len(prods) > 1:
                raise GraphError(
                    f"streaming channel {ch.name!r} has {len(prods)} producers; "
                    "single-writer streams required"
                )
        self.topo_order()  # raises CycleError on cycles
        if self._tasks and not self.source_tasks():
            raise GraphError(f"graph {self.name!r} has no source task")
        self._valid = True

    def topo_order(self) -> list[str]:
        """Task names in a deterministic topological order (Kahn's algorithm).

        Ties are broken by insertion order, so the result is stable.
        """
        if self._topo is not None:
            return list(self._topo)
        indeg = {name: 0 for name in self._tasks}
        succs: dict[str, list[str]] = {name: [] for name in self._tasks}
        for name in self._tasks:
            for s in self.successors(name):
                succs[name].append(s)
                indeg[s] += 1
        ready = deque(name for name in self._tasks if indeg[name] == 0)
        order: list[str] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for s in succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self._tasks):
            stuck = sorted(set(self._tasks) - set(order))
            raise CycleError(f"task graph {self.name!r} has a cycle among {stuck}")
        self._topo = order
        return list(order)

    # -- analysis ---------------------------------------------------------------------

    def serial_time(self, state: State) -> float:
        """Sum of serial task costs — one iteration on one processor."""
        return sum(t.cost(state) for t in self._tasks.values())

    def critical_path(self, state: State, use_best_variants: bool = False,
                      max_workers: Optional[int] = None) -> float:
        """Length of the longest cost-weighted path (a latency lower bound).

        With ``use_best_variants`` the weight of each task is its fastest
        data-parallel variant's duration — the lower bound the Figure 6
        enumerator uses for pruning.
        """

        def weight(name: str) -> float:
            t = self._tasks[name]
            if use_best_variants:
                return t.best_variant(state, max_workers).duration
            return t.cost(state)

        dist: dict[str, float] = {}
        for name in self.topo_order():
            preds = self.predecessors(name)
            base = max((dist[p] for p in preds), default=0.0)
            dist[name] = base + weight(name)
        return max(dist.values(), default=0.0)

    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """A shallow copy (tasks/channels are shared, immutable in practice)."""
        g = TaskGraph(name or self.name)
        for ch in self._channels.values():
            g.add_channel(ch)
        for t in self._tasks.values():
            g.add_task(t)
        return g

    def __repr__(self) -> str:
        return f"TaskGraph({self.name!r}, tasks={len(self._tasks)}, channels={len(self._channels)})"
