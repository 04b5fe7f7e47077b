"""Flat dispatch tables vs the object walks they replaced.

:class:`FlatSchedule` must reproduce :meth:`PipelinedSchedule.instantiate`
bitwise (same arithmetic, same ordering — starts are
compared by ``float.hex()``), and
:func:`build_task_plans` must agree with per-channel ``static`` queries —
these equivalences are what lets every substrate dispatch through the
compiled tables without a conformance risk.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.taskgraph import TaskGraph
from repro.runtime.dispatch import FlatSchedule, build_task_plans


def rotated_schedule() -> PipelinedSchedule:
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, 1.0),
        Placement("T2", (1, 2), 1.0, 2.0, variant="dp2"),
        Placement("T3", (3,), 1.0, 1.5),
        Placement("T4", (0, 1, 2, 3), 3.0, 2.5, variant="dp4"),
    ])
    return PipelinedSchedule(it, period=6.0, shift=1, n_procs=4)


def bits(rows) -> list[tuple]:
    """Rows (reference placements or flat rows) down to the last bit."""
    return [
        (r.task, r.procs, r.start.hex(), r.duration.hex(), r.variant)
        for r in rows
    ]


@st.composite
def pipelined_schedules(draw) -> PipelinedSchedule:
    """Any iteration pattern, period and shift — instantiate() rotates and
    offsets a pattern whether or not it would pipeline conflict-free."""
    n_procs = draw(st.integers(1, 8))
    times = st.floats(0.0, 1e3, allow_nan=False)
    placements = [
        Placement(
            f"T{i}",
            tuple(draw(st.permutations(range(n_procs)))[: draw(st.integers(1, n_procs))]),
            draw(times),
            draw(times),
            variant=draw(st.sampled_from(["serial", "dp2", "dp4"])),
        )
        for i in range(draw(st.integers(1, 6)))
    ]
    return PipelinedSchedule(
        IterationSchedule(placements),
        period=draw(st.floats(1e-3, 1e3, allow_nan=False)),
        shift=draw(st.integers(0, n_procs - 1)),
        n_procs=n_procs,
    )


@pytest.fixture
def sched():
    return rotated_schedule()


@pytest.fixture
def flat(sched):
    return FlatSchedule(sched)


class TestFlatSchedule:
    def test_instantiate_matches_reference(self, sched, flat):
        for k in range(3 * sched.n_procs + 1):
            assert bits(flat.instantiate(k)) == bits(sched.instantiate(k))

    @given(pipelined_schedules(), st.data())
    def test_instantiate_matches_reference_on_generated_schedules(self, sched, data):
        flat = FlatSchedule(sched)
        k = data.draw(st.integers(0, 3 * sched.n_procs))
        assert bits(flat.instantiate(k)) == bits(sched.instantiate(k))

    def test_primary_matches_proc_for(self, sched, flat):
        base = {p.task: p.procs[0] for p in sched.iteration.placements}
        for k in range(8):
            for row in flat.instantiate(k):
                assert row.procs[0] == sched.proc_for(base[row.task], k)

    def test_no_rotation_schedule(self):
        it = IterationSchedule([Placement("A", (2,), 0.0, 1.0)])
        sched = PipelinedSchedule(it, period=1.0, shift=0, n_procs=3)
        flat = FlatSchedule(sched)
        for k in (0, 5, 11):
            assert flat.instantiate(k)[0].procs == (2,)
            assert flat.instantiate(k)[0].start == k * 1.0


class TestTaskPlans:
    def graph(self) -> TaskGraph:
        from repro.graph.channel import ChannelSpec
        from repro.graph.task import Task

        g = TaskGraph()
        g.add_channel(ChannelSpec("cfg", static=True))
        g.add_channel(ChannelSpec("frames"))
        g.add_channel(ChannelSpec("masks"))
        g.add_channel(ChannelSpec("out"))
        g.add_task(Task("SRC", cost=1.0, outputs=["frames"]))
        g.add_task(Task("MID", cost=1.0, inputs=["frames", "cfg"],
                        outputs=["masks"]))
        g.add_task(Task("SINK", cost=1.0, inputs=["masks", "frames"],
                        outputs=["out"]))
        return g

    def test_classification_matches_graph(self):
        g = self.graph()
        plans = build_task_plans(g)
        assert set(plans) == {"SRC", "MID", "SINK"}
        for task in g.tasks:
            plan = plans[task.name]
            assert plan.static_inputs == tuple(
                ch for ch in task.inputs if g.channel(ch).static
            )
            assert plan.stream_inputs == tuple(
                ch for ch in task.inputs if not g.channel(ch).static
            )
            assert plan.outputs == tuple(task.outputs)
            assert plan.is_source == task.is_source

    def test_declared_order_preserved(self):
        plans = build_task_plans(self.graph())
        assert plans["MID"].static_inputs == ("cfg",)
        assert plans["MID"].stream_inputs == ("frames",)
        assert plans["SINK"].stream_inputs == ("masks", "frames")

    def test_indices_are_graph_positions(self):
        g = self.graph()
        plans = build_task_plans(g)
        for i, task in enumerate(g.tasks):
            assert plans[task.name].index == i
