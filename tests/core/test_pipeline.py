"""Unit and property tests for software pipelining."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidSchedule, ScheduleError
from repro.core.pipeline import best_pipelined, min_initiation_interval, naive_pipeline
from repro.core.schedule import IterationSchedule, Placement, PipelinedSchedule
from repro.graph.builders import chain_graph
from repro.sim.cluster import SINGLE_NODE_SMP


class TestNaivePipeline:
    def test_figure_4b_properties(self, tracker_graph, m8, smp4):
        p = naive_pipeline(tracker_graph, m8, smp4)
        # One processor, tasks back to back, no idle within the iteration.
        assert p.iteration.procs_used() == {0}
        assert p.iteration.busy_area() == pytest.approx(p.iteration.latency)
        # "This schedule has no idle time": II = serial / P.
        assert p.period == pytest.approx(tracker_graph.serial_time(m8) / 4)
        assert p.shift == 1
        p.validate_conflict_free()

    def test_latency_equals_serial_time(self, tracker_graph, m8, smp4):
        p = naive_pipeline(tracker_graph, m8, smp4)
        assert p.latency == pytest.approx(tracker_graph.serial_time(m8))

    def test_single_processor_cluster(self, m1):
        g = chain_graph([1.0, 1.0])
        p = naive_pipeline(g, m1, SINGLE_NODE_SMP(1))
        assert p.period == pytest.approx(2.0) and p.shift == 0

    def test_custom_order_must_cover_graph(self, tracker_graph, m8, smp4):
        with pytest.raises(ScheduleError):
            naive_pipeline(tracker_graph, m8, smp4, order=["T1", "T2"])

    def test_zero_cost_iteration_rejected(self, m1):
        g = chain_graph([0.0, 0.0])
        with pytest.raises(ScheduleError):
            naive_pipeline(g, m1, SINGLE_NODE_SMP(2))


class TestMinInitiationInterval:
    def test_single_span_no_shift(self):
        it = IterationSchedule([Placement("t", (0,), 0.0, 1.0)])
        assert min_initiation_interval(it, 1, 0) == pytest.approx(1.0)

    def test_single_span_with_rotation(self):
        """Rotating over 4 procs lets iterations start every L/4."""
        it = IterationSchedule([Placement("t", (0,), 0.0, 4.0)])
        assert min_initiation_interval(it, 4, 1) == pytest.approx(1.0)

    def test_periodic_packing_non_monotone_case(self):
        """Busy [0,1] and [3,4] on one proc: II=2 packs perfectly even
        though II=3 would collide — the classic non-monotone case."""
        it = IterationSchedule(
            [Placement("a", (0,), 0.0, 1.0), Placement("b", (0,), 3.0, 1.0)]
        )
        ii = min_initiation_interval(it, 1, 0)
        assert ii == pytest.approx(2.0)

    def test_area_lower_bound_respected(self):
        it = IterationSchedule(
            [Placement("a", (0,), 0.0, 2.0), Placement("b", (1,), 0.0, 2.0)]
        )
        assert min_initiation_interval(it, 2, 1) >= 2.0 - 1e-9

    def test_empty_iteration_rejected(self):
        with pytest.raises(InvalidSchedule):
            min_initiation_interval(IterationSchedule([]), 2, 0)

    def test_invalid_shift_rejected(self):
        it = IterationSchedule([Placement("t", (0,), 0.0, 1.0)])
        with pytest.raises(InvalidSchedule):
            min_initiation_interval(it, 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        durations=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4),
        n_procs=st.integers(1, 4),
        shift=st.integers(0, 3),
        data=st.data(),
    )
    def test_computed_ii_is_always_feasible(self, durations, n_procs, shift, data):
        """Whatever II the solver returns must produce a conflict-free
        pipelined schedule (correctness of the candidate search)."""
        if shift >= n_procs:
            shift = shift % n_procs
        placements = []
        t = 0.0
        for i, d in enumerate(durations):
            proc = data.draw(st.integers(0, n_procs - 1), label=f"proc{i}")
            placements.append(Placement(f"t{i}", (proc,), t, d))
            t += d
        it = IterationSchedule(placements)
        ii = min_initiation_interval(it, n_procs, shift)
        sched = PipelinedSchedule(it, period=ii, shift=shift, n_procs=n_procs)
        sched.validate_conflict_free()


class TestBestPipelined:
    def test_result_is_conflict_free(self, tracker_graph, m8, smp4):
        from repro.core.enumerate import enumerate_schedules

        res = enumerate_schedules(tracker_graph, m8, smp4)
        piped = best_pipelined(res.best, smp4)
        piped.validate_conflict_free()
        assert piped.period <= res.best.latency + 1e-9

    def test_zero_duration_placement_occupies_no_processor_time(self):
        """The II search ignores a zero-length span, so the safety-net
        validation must too: this legal iteration used to raise
        ``'a' [0,4) vs 'z' [3.5,3.5)``."""
        it = IterationSchedule(
            [Placement("a", (0,), 0.0, 4.0), Placement("z", (1,), 1.5, 0.0)]
        )
        piped = best_pipelined(it, SINGLE_NODE_SMP(2))
        assert (piped.period, piped.shift) == (2.0, 1)
        # ... while a real collision next to it is still reported
        with pytest.raises(InvalidSchedule, match="'a' .* vs 'a'"):
            PipelinedSchedule(it, period=1.0, shift=1, n_procs=2).validate_conflict_free()

    def test_prefers_rotating_pattern_on_tie(self):
        """A one-span iteration pipelines equally at any shift; the
        tie-break must pick a rotating pattern (the paper's wrap-around)."""
        it = IterationSchedule([Placement("t", (0,), 0.0, 1.0)])
        piped = best_pipelined(it, SINGLE_NODE_SMP(4))
        assert piped.shift != 0

    def test_throughput_bounded_by_area(self, tracker_graph, m8, smp4):
        from repro.core.enumerate import enumerate_schedules

        res = enumerate_schedules(tracker_graph, m8, smp4)
        piped = best_pipelined(res.best, smp4)
        area_bound = res.best.busy_area() / smp4.total_processors
        assert piped.period >= area_bound - 1e-9
