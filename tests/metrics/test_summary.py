"""The headline metrics of one execution, read off one result.

Latency, throughput, uniformity and utilization are computed by their own
functions in :mod:`repro.metrics`; these tests hold them together on one
static run and on degenerate results.
"""

from __future__ import annotations

import pytest

from repro.core.optimal import OptimalScheduler
from repro.metrics.latency import latency_stats, throughput_from_completions
from repro.metrics.uniformity import uniformity_stats
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State


class TestSummarize:
    @pytest.fixture(scope="class")
    def summary(self):
        from repro.apps.tracker.graph import build_tracker_graph

        g = build_tracker_graph()
        m8 = State(n_models=8)
        cluster = SINGLE_NODE_SMP(4)
        sol = OptimalScheduler(cluster).solve(g, m8)
        return sol, StaticExecutor(g, m8, cluster, sol).run(10)

    def test_headline_numbers_consistent(self, summary):
        sol, result = summary
        latency = latency_stats(result, warmup_fraction=0.2)
        assert latency.mean == pytest.approx(
            sol.latency - sol.iteration.placement("T1").end
        )
        throughput = throughput_from_completions(
            result.completion_sequence(), result.horizon
        )
        assert throughput == pytest.approx(sol.throughput, rel=0.05)
        assert result.meta.get("slips", 0) == 0

    def test_uniformity_perfect_for_static(self, summary):
        _, result = summary
        uniformity = uniformity_stats(result)
        assert uniformity.coverage == 1.0
        assert uniformity.max_gap == 0

    def test_utilization_in_range(self, summary):
        _, result = summary
        assert 0.0 < result.trace.utilization(result.trace.processors()) <= 1.0


class TestSummarizeEdgeCases:
    @staticmethod
    def make_result(digitize, completion, emitted, horizon=1.0):
        from repro.runtime.result import ExecutionResult
        from repro.sim.trace import TraceRecorder

        from repro.apps.tracker.graph import build_tracker_graph

        return ExecutionResult(
            graph=build_tracker_graph(),
            state=State(n_models=1),
            trace=TraceRecorder(),
            digitize_times=digitize,
            completion_times=completion,
            horizon=horizon,
            emitted=emitted,
        )

    def test_empty_trace_raises(self):
        from repro.errors import ExperimentError

        result = self.make_result({}, {}, emitted=0)
        with pytest.raises(ExperimentError):
            latency_stats(result)
        with pytest.raises(ExperimentError):
            uniformity_stats(result)

    def test_emitted_but_nothing_completed_raises(self):
        from repro.errors import ExperimentError

        result = self.make_result({0: 0.0, 1: 0.5}, {}, emitted=2)
        with pytest.raises(ExperimentError):
            latency_stats(result)
        with pytest.raises(ExperimentError):
            uniformity_stats(result)

    def test_single_timestamp_run(self):
        result = self.make_result({0: 0.1}, {0: 0.6}, emitted=1, horizon=1.0)
        latency, uniformity = latency_stats(result), uniformity_stats(result)
        assert latency.count == 1
        assert latency.mean == pytest.approx(0.5)
        assert latency.stdev == 0.0
        assert latency.spread == 0.0
        assert uniformity.coverage == 1.0
        assert uniformity.max_gap == 0
        assert uniformity.interarrival_cv == 0.0
        throughput = throughput_from_completions(
            result.completion_sequence(), result.horizon
        )
        assert throughput == pytest.approx(1.0)  # count/horizon fallback
        # no spans on any processor
        assert result.trace.utilization(result.trace.processors()) == 0.0

    def test_warmup_never_empties_the_window(self):
        # a huge warmup fraction must still leave at least one frame
        result = self.make_result({0: 0.0}, {0: 0.4}, emitted=1)
        assert latency_stats(result, warmup_fraction=0.9).count == 1


class TestCLIOutputFile:
    def test_report_written(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out_file = tmp_path / "report.txt"
        assert main(["table1", "--output", str(out_file)]) == 0
        text = out_file.read_text()
        assert "Table 1 reproduction" in text
        assert "shape holds: True" in text
