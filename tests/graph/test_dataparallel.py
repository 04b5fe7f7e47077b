"""Unit and property tests for data-parallel expansion (Figure 9)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import DecompositionError
from repro.graph.builders import chain_graph
from repro.graph.dataparallel import (
    expand_data_parallel,
    worker_chunk_counts,
)
from repro.graph.task import DataParallelSpec, Task
from repro.graph.channel import ChannelSpec
from repro.graph.taskgraph import TaskGraph


def dp_graph(cost=8.0, worker_counts=(2, 4), **spec_kw) -> TaskGraph:
    g = TaskGraph("dp")
    g.add_channel(ChannelSpec("in"))
    g.add_channel(ChannelSpec("out"))
    g.add_task(Task("src", cost=0.1, outputs=["in"]))
    g.add_task(
        Task(
            "work",
            cost=cost,
            inputs=["in"],
            outputs=["out"],
            data_parallel=DataParallelSpec(worker_counts=list(worker_counts), **spec_kw),
        )
    )
    g.add_task(Task("snk", cost=0.1, inputs=["out"]))
    g.validate()
    return g


class TestWorkerChunkCounts:
    def test_even(self):
        assert worker_chunk_counts(32, 4) == [8, 8, 8, 8]

    def test_uneven(self):
        assert worker_chunk_counts(5, 3) == [2, 2, 1]

    def test_fewer_chunks_than_workers(self):
        assert worker_chunk_counts(2, 4) == [1, 1, 0, 0]

    def test_invalid(self):
        with pytest.raises(DecompositionError):
            worker_chunk_counts(0, 2)

    @given(chunks=st.integers(1, 200), workers=st.integers(1, 32))
    def test_partition_properties(self, chunks, workers):
        counts = worker_chunk_counts(chunks, workers)
        assert sum(counts) == chunks
        assert len(counts) == workers
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)


class TestExpansion:
    def test_structure(self, m1):
        g = dp_graph()
        e = expand_data_parallel(g, "work", 4)
        names = set(e.task_names)
        assert "work" not in names
        assert {"work.split", "work.join"} <= names
        assert {f"work.w{i}" for i in range(4)} <= names
        # Boundary contract: splitter consumes the original inputs, joiner
        # produces the original outputs.
        assert e.task("work.split").inputs == ("in",)
        assert e.task("work.join").outputs == ("out",)
        e.validate()

    def test_unexpandable_task(self):
        g = chain_graph([1.0, 1.0])
        with pytest.raises(DecompositionError):
            expand_data_parallel(g, "t0", 2)

    def test_disallowed_worker_count(self):
        g = dp_graph(worker_counts=(2,))
        with pytest.raises(DecompositionError):
            expand_data_parallel(g, "work", 3)

    def test_worker_costs_divide_work(self, m1):
        g = dp_graph(cost=8.0)
        e = expand_data_parallel(g, "work", 4)
        for i in range(4):
            assert e.task(f"work.w{i}").cost(m1) == pytest.approx(2.0)

    def test_uneven_chunks_give_uneven_workers(self, m1):
        g = dp_graph(cost=6.0)
        e = expand_data_parallel(g, "work", 4, n_chunks=6)
        costs = [e.task(f"work.w{i}").cost(m1) for i in range(4)]
        # 6 chunks of 1.0 each over 4 workers: [2, 2, 1, 1].
        assert costs == pytest.approx([2.0, 2.0, 1.0, 1.0])

    def test_original_graph_untouched(self):
        g = dp_graph()
        expand_data_parallel(g, "work", 2)
        assert "work" in g and "work.split" not in g.task_names
