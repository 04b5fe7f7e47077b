"""Unit and property tests for tasks and data-parallel variants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GraphError
from repro.graph.task import DataParallelSpec, Task, Variant
from repro.state import State


class TestTaskValidation:
    def test_basic_construction(self):
        t = Task("T4", cost=1.0, inputs=["a"], outputs=["b"])
        assert not t.is_source and not t.is_sink

    def test_source_and_sink_flags(self):
        assert Task("src", cost=0.1, outputs=["c"]).is_source
        assert Task("snk", cost=0.1, inputs=["c"]).is_sink

    def test_empty_name_rejected(self):
        with pytest.raises(GraphError):
            Task("", cost=1.0)

    def test_channel_in_both_directions_rejected(self):
        with pytest.raises(GraphError):
            Task("t", cost=1.0, inputs=["c"], outputs=["c"])

    def test_duplicate_channels_rejected(self):
        with pytest.raises(GraphError):
            Task("t", cost=1.0, inputs=["a", "a"])

    def test_nonpositive_period_rejected(self):
        with pytest.raises(GraphError):
            Task("t", cost=1.0, period=0.0)


class TestReplace:
    def test_every_field_not_named_is_carried(self):
        dp = DataParallelSpec([2])
        fns = [lambda *a: {} for _ in range(3)]
        t = Task("t", cost=1.0, inputs=["a"], outputs=["b"], data_parallel=dp,
                 period=None, compute=fns[0], compute_chunk=fns[1],
                 compute_join=fns[2])
        r = t.replace(cost=2.0)
        assert r is not t and r.cost(State(n=1)) == 2.0
        for field in ("name", "inputs", "outputs", "data_parallel", "period",
                      "compute", "compute_chunk", "compute_join"):
            assert getattr(r, field) == getattr(t, field)

    def test_replacement_is_validated_like_a_new_task(self):
        with pytest.raises(GraphError):
            Task("src", cost=1.0, outputs=["c"]).replace(period=-1.0)
        with pytest.raises(TypeError):
            Task("src", cost=1.0).replace(colour="red")

    def test_graph_clones_keep_the_live_tracker_kernels(self):
        """``graph_with_costs`` and ``perturbed_graph`` used to re-type the
        constructor without ``compute_chunk`` / ``compute_join``: the
        process runtime then ran T4's dp placements serially, silently."""
        from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
        from repro.apps.video import VideoSource
        from repro.core.sensitivity import perturbed_graph
        from repro.obs.calibrate import ScaledCost, graph_with_costs
        from repro.sched.handtuned import with_source_period

        live, _statics = attach_kernels(
            build_tracker_graph(frame_shape=(48, 64), digitizer_period=0.5),
            VideoSource(n_targets=2, height=48, width=64, seed=5),
        )
        t4 = live.task("T4")
        assert t4.compute_chunk is not None and t4.data_parallel is not None
        clones = {
            "with_source_period": with_source_period(live, 0.5),
            "graph_with_costs": graph_with_costs(
                live, {t.name: ScaledCost(t.cost, 1.2) for t in live.tasks}
            ),
            "perturbed_graph": perturbed_graph(
                live, {t.name: 1.2 for t in live.tasks}
            ),
        }
        for helper, clone in clones.items():
            for t in live.tasks:
                c = clone.task(t.name)
                for field in ("compute", "compute_chunk", "compute_join"):
                    assert getattr(c, field) is getattr(t, field), (helper, t.name, field)
                assert c.period == t.period, (helper, t.name)
                assert (c.data_parallel is None) == (t.data_parallel is None)
                if t.data_parallel is not None:
                    assert c.data_parallel.worker_counts == t.data_parallel.worker_counts


class TestVariant:
    def test_area(self):
        assert Variant("t", 4, 2.0).area == 8.0

    def test_invalid_workers(self):
        with pytest.raises(GraphError):
            Variant("t", 0, 1.0)

    def test_invalid_duration(self):
        with pytest.raises(GraphError):
            Variant("t", 1, float("inf"))


class TestVariants:
    def test_serial_only_without_spec(self, m8):
        t = Task("t", cost=2.0)
        vs = t.variants(m8)
        assert len(vs) == 1 and vs[0].label == "serial" and vs[0].duration == 2.0

    def test_perfect_division_default(self, m8):
        spec = DataParallelSpec(worker_counts=[2, 4])
        t = Task("t", cost=8.0, data_parallel=spec)
        by_label = {v.label: v for v in t.variants(m8)}
        assert by_label["dp2"].duration == pytest.approx(4.0)
        assert by_label["dp4"].duration == pytest.approx(2.0)

    def test_max_workers_filters(self, m8):
        spec = DataParallelSpec(worker_counts=[2, 4, 8])
        t = Task("t", cost=8.0, data_parallel=spec)
        labels = {v.label for v in t.variants(m8, max_workers=4)}
        assert labels == {"serial", "dp2", "dp4"}

    def test_overheads_make_wide_variants_lose(self, m8):
        spec = DataParallelSpec(
            worker_counts=[2, 8], per_chunk_overhead=0.5, split_cost=1.0, join_cost=1.0
        )
        t = Task("t", cost=2.0, data_parallel=spec)
        assert t.best_variant(m8).label == "serial"

    def test_waves_model(self, m8):
        # 8 chunks on 2 workers -> 4 waves.
        spec = DataParallelSpec(
            worker_counts=[2], chunks_for=lambda s, w: 8,
            chunk_cost=lambda s, n: 1.0,
        )
        t = Task("t", cost=8.0, data_parallel=spec)
        dp2 = [v for v in t.variants(m8) if v.label == "dp2"][0]
        assert dp2.duration == pytest.approx(4.0)
        assert dp2.chunks == 8

    def test_best_variant_ties_prefer_fewer_workers(self, m8):
        spec = DataParallelSpec(worker_counts=[2], chunk_cost=lambda s, n: 2.0)
        t = Task("t", cost=2.0, data_parallel=spec)
        # serial = 2.0; dp2 = one wave of 2.0 chunks = 2.0 -> tie -> serial.
        assert t.best_variant(m8).workers == 1

    @given(
        cost=st.floats(0.1, 100),
        workers=st.integers(1, 16),
        chunks=st.integers(1, 64),
        overhead=st.floats(0, 1),
    )
    def test_duration_at_least_ideal(self, cost, workers, chunks, overhead):
        """The wave model never beats perfect division of total work."""
        spec = DataParallelSpec(
            worker_counts=[workers],
            chunks_for=lambda s, w: chunks,
            per_chunk_overhead=overhead,
        )
        t = Task("t", cost=cost, data_parallel=spec)
        dur = spec.duration(t, State(n_models=1), workers)
        ideal = cost / min(workers, chunks)
        assert dur >= ideal - 1e-9

    @given(workers=st.integers(2, 8), chunks=st.integers(1, 40))
    def test_duration_matches_wave_formula(self, workers, chunks):
        spec = DataParallelSpec(
            worker_counts=[workers],
            chunks_for=lambda s, w: chunks,
            chunk_cost=lambda s, n: 0.5,
            split_cost=0.1,
            join_cost=0.2,
        )
        t = Task("t", cost=1.0, data_parallel=spec)
        expected = 0.1 + math.ceil(chunks / workers) * 0.5 + 0.2
        assert spec.duration(t, State(n_models=1), workers) == pytest.approx(expected)


class TestDataParallelSpecValidation:
    def test_empty_worker_counts(self):
        with pytest.raises(GraphError):
            DataParallelSpec(worker_counts=[])

    def test_nonpositive_workers(self):
        with pytest.raises(GraphError):
            DataParallelSpec(worker_counts=[0, 2])

    def test_negative_overheads(self):
        with pytest.raises(GraphError):
            DataParallelSpec(worker_counts=[2], split_cost=-1.0)
