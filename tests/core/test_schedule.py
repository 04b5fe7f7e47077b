"""Unit tests for the schedule data model."""

from __future__ import annotations

import pytest

from repro.errors import InvalidSchedule
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.graph.builders import chain_graph, fork_join_graph
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommCost, CommModel


class TestPlacement:
    def test_basic(self):
        p = Placement("t", (1, 2), 0.5, 1.5)
        assert p.end == 2.0 and p.primary == 1 and p.workers == 2

    def test_no_procs_rejected(self):
        with pytest.raises(InvalidSchedule):
            Placement("t", (), 0.0, 1.0)

    def test_repeated_proc_rejected(self):
        with pytest.raises(InvalidSchedule):
            Placement("t", (1, 1), 0.0, 1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(InvalidSchedule):
            Placement("t", (0,), -1.0, 1.0)
        with pytest.raises(InvalidSchedule):
            Placement("t", (0,), 0.0, -1.0)

    def test_negative_processor_rejected_by_name(self):
        """Refused where it is made, naming the task and the index: a pipelined
        schedule over it would wrap it round in ``instantiate`` and fail its
        conflict check with a bare shift-count error."""
        for procs in ((-1,), (0, -2)):
            with pytest.raises(
                InvalidSchedule, match=rf"^placement of 'a' uses negative processor {min(procs)}$"
            ):
                Placement("a", procs, 0.0, 1.0)


class TestIterationSchedule:
    def chain_schedule(self):
        return IterationSchedule(
            [
                Placement("t0", (0,), 0.0, 1.0),
                Placement("t1", (0,), 1.0, 2.0),
                Placement("t2", (1,), 3.0, 3.0),
            ]
        )

    def test_latency_and_span(self):
        s = self.chain_schedule()
        assert s.latency == 6.0 and s.span == 6.0

    def test_duplicate_task_rejected(self):
        with pytest.raises(InvalidSchedule):
            IterationSchedule(
                [Placement("t", (0,), 0.0, 1.0), Placement("t", (1,), 0.0, 1.0)]
            )

    def test_lookup(self):
        s = self.chain_schedule()
        assert s.placement("t1").start == 1.0
        assert "t1" in s and "ghost" not in s
        with pytest.raises(InvalidSchedule):
            s.placement("ghost")

    def test_busy_area_and_idle(self):
        s = self.chain_schedule()
        assert s.busy_area() == pytest.approx(6.0)
        # Half of the 2-processor x latency rectangle is idle.
        assert s.busy_area() / (2 * s.latency) == pytest.approx(0.5)

    def test_validate_passes_for_legal_schedule(self, m1):
        g = chain_graph([1.0, 2.0, 3.0])
        self.chain_schedule().validate(g, m1, SINGLE_NODE_SMP(2))

    def test_validate_missing_task(self, m1):
        g = chain_graph([1.0, 2.0, 3.0])
        s = IterationSchedule([Placement("t0", (0,), 0.0, 1.0)])
        with pytest.raises(InvalidSchedule, match="misses"):
            s.validate(g, m1, SINGLE_NODE_SMP(2))

    def test_validate_unknown_processor(self, m1):
        g = chain_graph([1.0])
        s = IterationSchedule([Placement("t0", (9,), 0.0, 1.0)])
        with pytest.raises(InvalidSchedule, match="processor"):
            s.validate(g, m1, SINGLE_NODE_SMP(2))

    def test_validate_resource_overlap(self, m1):
        g = fork_join_graph(0.0, [1.0, 1.0], 0.0)
        s = IterationSchedule(
            [
                Placement("source", (0,), 0.0, 0.0),
                Placement("branch0", (0,), 0.0, 1.0),
                Placement("branch1", (0,), 0.5, 1.0),  # overlaps on proc 0
                Placement("sink", (0,), 1.5, 0.0),
            ]
        )
        with pytest.raises(InvalidSchedule, match="overlaps"):
            s.validate(g, m1, SINGLE_NODE_SMP(2))

    def test_validate_precedence(self, m1):
        g = chain_graph([1.0, 1.0])
        s = IterationSchedule(
            [
                Placement("t0", (0,), 0.0, 1.0),
                Placement("t1", (1,), 0.5, 1.0),  # starts before t0 ends
            ]
        )
        with pytest.raises(InvalidSchedule, match="precedence"):
            s.validate(g, m1, SINGLE_NODE_SMP(2))

    def test_validate_reports_the_earliest_starting_violation_first(self, m1):
        """Several precedence violations: the schedule's start order decides.

        ``t2`` starts before ``t1``, so it is reported although the graph
        lists ``t1`` first — and the graph's cost snapshot, which lists its
        tasks in topological order, names the same violation.
        """
        from repro.core.enumerate import SearchProblem

        g = chain_graph([1.0, 1.0, 1.0])
        s = IterationSchedule(
            [
                Placement("t0", (0,), 0.0, 1.0),
                Placement("t1", (1,), 0.5, 1.0),  # before t0 ends
                Placement("t2", (2,), 0.2, 1.0),  # before t1 ends, and earlier
            ]
        )
        first = "precedence violated: 't2' starts at 0.2 but 't1' ends at 1.5"
        for view in (g, SearchProblem.from_graph(g, m1, max_workers=1)):
            with pytest.raises(InvalidSchedule) as err:
                s.validate(view, m1, SINGLE_NODE_SMP(3))
            assert str(err.value).startswith(first)

    def test_validate_includes_comm_delay(self, m1):
        g = chain_graph([1.0, 1.0], item_bytes=1000)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster, inter_node=CommCost(latency=0.5, bandwidth=float("inf"))
        )
        tight = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.0, 1.0)]
        )
        with pytest.raises(InvalidSchedule, match="comm"):
            tight.validate(g, m1, cluster, comm)
        padded = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.5, 1.0)]
        )
        padded.validate(g, m1, cluster, comm)

    def test_canonical_key_stable(self):
        assert self.chain_schedule().canonical_key() == self.chain_schedule().canonical_key()

    def test_latency_computed_once_and_survives_round_trips(self):
        import pickle

        from repro.core.serialize import iteration_from_dict, iteration_to_dict

        it = self.chain_schedule()
        assert it.latency == max(p.end for p in it.placements)
        assert IterationSchedule([]).latency == 0.0
        for copy in (pickle.loads(pickle.dumps(it)),
                     iteration_from_dict(iteration_to_dict(it))):
            assert copy.latency == it.latency
            assert copy.canonical_key() == it.canonical_key()


class TestPipelinedSchedule:
    def one_proc_iteration(self):
        return IterationSchedule([Placement("t", (0,), 0.0, 1.0)])

    def test_throughput(self):
        p = PipelinedSchedule(self.one_proc_iteration(), period=0.5, shift=1, n_procs=2)
        assert p.throughput == 2.0

    def test_instantiate_rotates_and_offsets(self):
        p = PipelinedSchedule(self.one_proc_iteration(), period=0.5, shift=1, n_procs=4)
        k2 = p.instantiate(2)
        assert k2[0].procs == (2,) and k2[0].start == 1.0

    def test_wraparound(self):
        p = PipelinedSchedule(self.one_proc_iteration(), period=1.0, shift=1, n_procs=2)
        assert p.proc_for(0, 5) == 1

    def test_conflict_detection(self):
        # II shorter than the task on the same processor with no shift.
        p = PipelinedSchedule(self.one_proc_iteration(), period=0.5, shift=0, n_procs=2)
        with pytest.raises(InvalidSchedule, match="collide"):
            p.validate_conflict_free()

    def test_conflict_free_with_rotation(self):
        p = PipelinedSchedule(self.one_proc_iteration(), period=0.5, shift=1, n_procs=2)
        p.validate_conflict_free()

    def test_invalid_parameters(self):
        it = self.one_proc_iteration()
        with pytest.raises(InvalidSchedule):
            PipelinedSchedule(it, period=0.0, shift=0, n_procs=1)
        with pytest.raises(InvalidSchedule):
            PipelinedSchedule(it, period=1.0, shift=5, n_procs=2)
        with pytest.raises(InvalidSchedule):
            PipelinedSchedule(it, period=1.0, shift=0, n_procs=0)

    def test_iteration_beyond_procs_rejected(self):
        it = IterationSchedule([Placement("t", (3,), 0.0, 1.0)])
        with pytest.raises(InvalidSchedule):
            PipelinedSchedule(it, period=1.0, shift=0, n_procs=2)
