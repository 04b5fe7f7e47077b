"""Integration tests: every paper table/figure reproduces its shape.

These run the real experiment harnesses at reduced scale, then assert the
paper's qualitative claims — the same checks EXPERIMENTS.md reports.
"""

from __future__ import annotations

import pytest



class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.table1 import run_table1

        return run_table1()

    def test_shape_holds(self, result):
        assert result.shape_holds()

    def test_simulation_matches_analytic_model(self, result):
        """The DES execution of the Figure 9 expansion reproduces the
        analytic wave model exactly (uniform chunks)."""
        for cell in result.cells:
            assert cell.simulated == pytest.approx(cell.analytic, rel=1e-6)

    def test_within_six_percent_of_paper(self, result):
        for cell in result.cells:
            assert abs(cell.simulated - cell.paper) / cell.paper < 0.06

    def test_chunk_counts_match_paper_parentheses(self, result):
        assert result.cell(1, 8, 8).chunks == 8
        assert result.cell(4, 8, 8).chunks == 32
        assert result.cell(4, 8, 1).chunks == 4

    def test_render(self, result):
        text = result.render()
        assert "shape holds: True" in text and "6.8" in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.figure3 import run_figure3

        return run_figure3(
            periods=(0.033, 1.0, 2.0, 3.0, 5.0), horizon=60.0,
            optimal_iterations=12,
        )

    def test_optimal_dominates_curve(self, result):
        assert result.optimal_dominates_curve()

    def test_optimal_matches_best_latency(self, result):
        assert result.optimal_has_min_latency()

    def test_optimal_halves_worst_latency(self, result):
        assert result.halves_worst_latency()

    def test_curve_shape_saturated_vs_drained(self, result):
        by_period = {p.period: p for p in result.points}
        saturated = by_period[0.033]
        drained = by_period[5.0]
        assert saturated.latency > 2 * drained.latency
        assert saturated.throughput > 2 * drained.throughput

    def test_measured_optimal_matches_plan(self, result):
        assert result.measured_optimal_latency == pytest.approx(
            result.optimal_latency, rel=0.05
        )
        assert result.measured_optimal_throughput == pytest.approx(
            result.optimal_throughput, rel=0.05
        )

    def test_render(self, result):
        text = result.render()
        assert "optimal dominates whole curve" in text and "*" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.figure4 import run_figure4

        return run_figure4(horizon=60.0, iterations=10)

    def test_pipeline_beats_pthread(self, result):
        assert result.pipeline_beats_pthread()

    def test_pthread_shows_partial_processing(self, result):
        """§3.2: the on-line scheduler preempts threads mid-item."""
        assert result.pthread_preempted_spans > 0
        assert result.pipeline_preempted_spans == 0

    def test_pthread_skips_frames(self, result):
        assert result.pthread_uniformity.coverage < 0.5
        assert result.pipeline_uniformity.coverage == 1.0

    def test_pipeline_perfectly_regular(self, result):
        assert result.pipeline_uniformity.interarrival_cv == pytest.approx(0.0)

    def test_render(self, result):
        text = result.render()
        assert "(a) pthread-style" in text and "(b) naive software pipeline" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.figure5 import run_figure5

        return run_figure5(iterations=8)

    def test_latency_ordering(self, result):
        assert result.latency_ordering_holds()

    def test_throughput_tradeoff(self, result):
        assert result.throughput_tradeoff_holds()

    def test_data_parallel_much_faster(self, result):
        """Fig 5(b) vs naive: T4's data parallelism is the big win."""
        assert result.data_parallel_measured_latency < result.naive_measured_latency / 3

    def test_wraparound_pattern_exists(self, result):
        assert result.wraps_around()

    def test_render(self, result):
        assert "latency ordering" in result.render()


class TestRegime:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.regime import run_regime

        return run_regime(horizon=1800.0)

    def test_switching_beats_all_fixed(self, result):
        assert result.switching_beats_all_fixed()

    def test_oracle_bounds_switched(self, result):
        oracle = result.outcome("oracle")
        switched = result.outcome("regime-switched")
        assert switched.frames_processed <= oracle.frames_processed + 1e-9
        # The switched row is executed, so its mean is over frames; the
        # oracle's is over time, and the light states run more frames a
        # second at a lower latency.
        assert switched.mean_latency <= oracle.mean_latency + 1e-9
        assert switched.worst_latency == pytest.approx(oracle.worst_latency)

    def test_light_fixed_schedules_saturate(self, result):
        assert result.outcome("fixed-1").saturated_time > 0
        assert result.outcome("fixed-5").saturated_time == 0.0

    def test_heavy_fixed_schedule_wastes_throughput(self, result):
        f5 = result.outcome("fixed-5")
        switched = result.outcome("regime-switched")
        assert switched.frames_processed > f5.frames_processed * 1.2

    def test_stall_accounting(self, result):
        switched = result.outcome("regime-switched")
        assert switched.switches > 0
        assert switched.total_stall > 0
        assert result.outcome("oracle").total_stall == 0.0

    def test_render(self, result):
        assert "regime switching beats every fixed schedule: True" in result.render()


class TestAblations:
    def test_interpolation_has_inapplicable_state(self):
        from repro.experiments.ablations import interpolation

        rows = interpolation()
        by_m = {r.n_models: r for r in rows}
        # §2.1's discontinuity: no neighbouring strategy can track 1 model.
        assert by_m[1].neighbour_latency is None

    def test_comm_cost_localizes(self):
        from repro.experiments.ablations import comm_cost

        rows = comm_cost(latencies=(0.0, 1.0))
        assert rows[0].nodes_touched == 2   # cheap comm: spread
        assert rows[1].nodes_touched == 1   # expensive comm: localize
        # Localized iterations overlap across nodes: II < L (§3.3).
        assert rows[1].period < rows[1].latency - 1e-9

    def test_flow_control_inadequate(self):
        from repro.experiments.ablations import flow_control

        rows = flow_control(capacities=(2, None), horizon=60.0)
        for row in rows:
            assert row.gap > 1.5  # nowhere near the optimal schedule

    def test_space_footprint_claim(self):
        """§3.3: the static schedule's live footprint is bounded and tiny;
        the saturated dynamic baseline's backlog dwarfs it."""
        from repro.experiments.ablations import space_footprint

        rows = {r.mode: r for r in space_footprint(horizon=60.0, iterations=15)}
        static = rows["optimal static schedule"]
        dynamic = rows["pthread dynamic (saturated)"]
        assert static.high_water_items <= 8
        assert dynamic.high_water_items > 20 * static.high_water_items

    def test_link_contention_assumption_validated(self):
        from repro.experiments.ablations import link_contention

        rows = link_contention(latencies=(0.05,), iterations=6)
        assert rows[0].slips == 0
        assert rows[0].degradation == pytest.approx(0.0, abs=0.01)

    def test_switch_frequency_amortizes(self):
        from repro.experiments.ablations import switch_frequency

        rows = switch_frequency(dwells=(60.0, 600.0), horizon=1200.0)
        assert rows[0].stall_fraction > rows[1].stall_fraction
        assert all(r.switching_wins for r in rows)
