"""Tests for the fault-tolerance sweep experiment and its CLI entry."""

from __future__ import annotations

import pytest

from repro.experiments.faults_exp import FaultsResult, run_faults


class TestFaultsExperiment:
    @pytest.fixture(scope="class")
    def result(self) -> FaultsResult:
        return run_faults(rates=(0.0, 0.08), iterations=20)

    def test_zero_rate_is_lossless(self, result):
        for r in result.rows:
            if r.rate == 0.0:
                assert r.completed == r.emitted
                assert r.recovery.frames_lost == 0
                assert r.recovery.availability == 1.0
                assert r.stall_fraction == 0.0

    def test_failures_cost_availability(self, result):
        faulty = [r for r in result.rows if r.rate > 0.0]
        assert faulty
        assert all(r.recovery.crashes >= 1 for r in faulty)
        assert all(r.recovery.availability < 1.0 for r in faulty)

    def test_policies_face_identical_fault_plans(self, result):
        faulty = [r for r in result.rows if r.rate > 0.0]
        # Same seeded plan per rate: detection latencies agree across
        # policies that saw the same number of crashes.
        by_crashes = {}
        for r in faulty:
            by_crashes.setdefault(r.recovery.crashes, set()).add(
                round(r.recovery.detection_latency_mean, 9)
            )
        for latencies in by_crashes.values():
            assert len(latencies) == 1

    def test_policy_trade(self, result):
        rows = {r.policy: r for r in result.rows if r.rate > 0.0}
        assert rows["immediate"].stall_fraction < rows["drain"].stall_fraction
        assert rows["immediate"].recovery.frames_lost_transition > 0
        assert rows["drain"].recovery.frames_lost_transition == 0
        assert rows["checkpoint"].recovery.frames_replayed > 0

    def test_breaking_rate(self, result):
        assert result.breaking_rate("drain") == 0.08
        assert result.breaking_rate("immediate") is None

    def test_render(self, result):
        text = result.render()
        assert "amortization" in text
        assert "BREAKS" in text and "holds" in text

    def test_cli(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["faults", "--quick"]) == 0
        assert "faults" in capsys.readouterr().out


# The rendered ``faults`` reports as ``python -m repro.experiments faults
# [--quick]`` printed them when the fault runner still had its
# own generator placement body (PR 19's commit), trailing blanks stripped.
# Every cell is a whole inject -> detect -> fail over -> recover run, so the
# text pins the runner end to end across a change of body.
GOLDEN_QUICK = """\
Failure rate x transition policy (20 frames, ~50s)
rate (1/s)  policy      crashes  failovers  done   lost:crash  lost:trans  replayed  detect (s)  avail  amortization
----------  ----------  -------  ---------  -----  ----------  ----------  --------  ----------  -----  ------------
0.000       checkpoint  0        0          20/20  0           0           0         -           1.000  holds
0.000       drain       0        0          20/20  0           0           0         -           1.000  holds
0.000       immediate   0        0          20/20  0           0           0         -           1.000  holds
0.080       checkpoint  1        2          18/20  2           0           2         0.31        0.635  BREAKS
0.080       drain       1        2          18/20  2           0           0         0.31        0.681  BREAKS
0.080       immediate   1        2          16/20  2           2           0         0.31        0.680  holds

§3.4 amortization verdict:
  checkpoint: amortization breaks at 0.08/s
  drain: amortization breaks at 0.08/s
  immediate: amortization holds at every swept rate
"""

GOLDEN_FULL = """\
Failure rate x transition policy (40 frames, ~100s)
rate (1/s)  policy      crashes  failovers  done   lost:crash  lost:trans  replayed  detect (s)  avail  amortization
----------  ----------  -------  ---------  -----  ----------  ----------  --------  ----------  -----  ------------
0.000       checkpoint  0        0          40/40  0           0           0         -           1.000  holds
0.000       drain       0        0          40/40  0           0           0         -           1.000  holds
0.000       immediate   0        0          40/40  0           0           0         -           1.000  holds
0.020       checkpoint  2        2          38/40  2           0           2         0.33        0.772  holds
0.020       drain       2        2          38/40  2           0           0         0.33        0.804  holds
0.020       immediate   2        2          37/40  1           2           0         0.33        0.835  holds
0.080       checkpoint  3        6          35/40  5           0           4         0.33        0.578  BREAKS
0.080       drain       3        5          35/40  5           0           0         0.33        0.723  BREAKS
0.080       immediate   2        4          34/40  3           3           0         0.31        0.764  holds

§3.4 amortization verdict:
  checkpoint: amortization breaks at 0.08/s
  drain: amortization breaks at 0.08/s
  immediate: amortization holds at every swept rate
"""


class TestGoldenReports:
    @pytest.mark.parametrize(
        "quick,golden", [(True, GOLDEN_QUICK), (False, GOLDEN_FULL)], ids=["quick", "full"]
    )
    def test_report_text_is_unchanged(self, quick, golden):
        from repro.experiments.__main__ import _faults

        text = _faults(quick)
        assert [line.rstrip() for line in text.splitlines()] == golden.splitlines()
