"""Tests for the benchmark trajectory harness (``benchmarks/trajectory.py``).

The harness is a standalone CLI living next to the ``BENCH_*.json``
envelopes it consumes, so it is imported here by path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:  # _schema + trajectory live there
    sys.path.insert(0, str(BENCH_DIR))

import trajectory  # noqa: E402
from _schema import write_bench  # noqa: E402


def make_envelope(tmp_path: Path, name: str, results: dict) -> Path:
    return write_bench(name, results, tmp_path / f"BENCH_{name}.json")


SAMPLE = {
    "quick": False,
    "substrates": {
        "cpus": 4,
        "threaded": {"wall_s": 2.0},
        "ladder": {
            "4": {"wall_s": 1.0, "speedup_over_threaded": 2.0,
                  "asserted": True},
            "8": {"wall_s": 9.9, "speedup_over_threaded": 0.5,
                  "asserted": False},
        },
        "skipped": None,
    },
    "broker_roundtrips": {
        "coalesced": {"marginal_roundtrips_per_frame": 5.0},
    },
}


class TestFlatten:
    def test_numeric_leaves_dotted_paths(self):
        flat = trajectory.flatten_metrics(SAMPLE)
        assert flat["substrates.threaded.wall_s"] == 2.0
        assert flat[
            "broker_roundtrips.coalesced.marginal_roundtrips_per_frame"] == 5.0

    def test_booleans_dropped(self):
        flat = trajectory.flatten_metrics(SAMPLE)
        assert "quick" not in flat
        assert not any(k.endswith("asserted") for k in flat)

    def test_unasserted_subtrees_dropped(self):
        flat = trajectory.flatten_metrics(SAMPLE)
        assert "substrates.ladder.4.wall_s" in flat
        assert not any(".8." in k for k in flat)


class TestAppendAndCheck:
    def run_cycle(self, tmp_path: Path, results: dict) -> Path:
        make_envelope(tmp_path, "substrates", results)
        out = tmp_path / trajectory.TRAJECTORY_NAME
        trajectory.append_entry(tmp_path, out)
        return out

    def test_append_creates_and_extends(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        assert len(trajectory.load_trajectory(out)) == 1
        trajectory.append_entry(tmp_path, out)
        entries = trajectory.load_trajectory(out)
        assert len(entries) == 2
        assert "substrates" in entries[-1]["benches"]

    def test_append_without_envelopes_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            trajectory.append_entry(tmp_path)

    def test_first_entry_passes_vacuously(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        assert trajectory.check_regression(out) == []

    def test_identical_entries_pass(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == []

    def _mutated(self, path: str, factor: float) -> dict:
        new = json.loads(json.dumps(SAMPLE))  # deep copy
        node = new
        *parents, leaf = path.split(".")
        for part in parents:
            node = node[part]
        node[leaf] *= factor
        return new

    def test_lower_is_better_regression_fails(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        make_envelope(tmp_path, "substrates",
                      self._mutated("substrates.threaded.wall_s", 1.2))
        trajectory.append_entry(tmp_path, out)
        failures = trajectory.check_regression(out)
        assert any("threaded.wall_s" in f for f in failures)

    def test_higher_is_better_regression_fails(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        make_envelope(
            tmp_path, "substrates",
            self._mutated("substrates.ladder.4.speedup_over_threaded", 0.5),
        )
        trajectory.append_entry(tmp_path, out)
        failures = trajectory.check_regression(out)
        assert any("speedup_over_threaded" in f for f in failures)

    def test_pipeline_step_row_is_gated(self, tmp_path):
        """bench_enumerate's step-3 row: its seconds and its search count."""
        def step(wall_s, searches):
            return {"quick": True, "pipeline_step": {"free_comm": {
                "members_of_S": 56, "ii_searches": searches, "wall_s": wall_s}}}

        make_envelope(tmp_path, "enumerate", step(0.006, 16))
        out = tmp_path / trajectory.TRAJECTORY_NAME
        trajectory.append_entry(tmp_path, out)
        make_envelope(tmp_path, "enumerate", step(0.007, 448))
        trajectory.append_entry(tmp_path, out)
        failures = trajectory.check_regression(out)
        assert len(failures) == 2
        assert any("pipeline_step.free_comm.wall_s" in f for f in failures)
        assert any("pipeline_step.free_comm.ii_searches" in f for f in failures)

    @staticmethod
    def one_node(marginal: float, speedup: float = 2.0) -> dict:
        """A one-node broker row: 0 round trips a frame is its baseline."""
        new = json.loads(json.dumps(SAMPLE))
        new["broker_roundtrips"]["one_node"] = {
            "marginal_roundtrips_per_frame": marginal}
        new["substrates"]["ladder"]["4"]["speedup_over_threaded"] = speedup
        return new

    def test_zero_baseline_must_stay_zero(self, tmp_path):
        out = self.run_cycle(tmp_path, self.one_node(0.0))
        make_envelope(tmp_path, "substrates", self.one_node(0.25))
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == [
            "substrates:broker_roundtrips.one_node.marginal_roundtrips_per_frame"
            " must stay zero, got 0.25"]

    def test_zero_baseline_that_stays_zero_passes(self, tmp_path):
        out = self.run_cycle(tmp_path, self.one_node(0.0))
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == []

    def test_zero_baseline_of_a_higher_is_better_metric_is_not_gated(self, tmp_path):
        out = self.run_cycle(tmp_path, self.one_node(0.0, speedup=0.0))
        make_envelope(tmp_path, "substrates", self.one_node(0.0, speedup=0.0))
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == []

    def test_within_tolerance_passes(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        make_envelope(tmp_path, "substrates",
                      self._mutated("substrates.threaded.wall_s", 1.05))
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == []

    def test_ungated_metrics_never_fail(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        make_envelope(tmp_path, "substrates",
                      self._mutated("substrates.cpus", 100.0))
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == []

    def test_different_host_not_compared(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        make_envelope(tmp_path, "substrates",
                      self._mutated("substrates.threaded.wall_s", 2.0))
        trajectory.append_entry(tmp_path, out)
        entries = trajectory.load_trajectory(out)
        entries[0]["host"]["cpus"] = 999  # baseline came from another host
        out.write_text(json.dumps({"schema_version": 1, "entries": entries}))
        assert trajectory.check_regression(out) == []

    def test_quick_mode_mismatch_not_compared(self, tmp_path):
        out = self.run_cycle(tmp_path, SAMPLE)
        quick = json.loads(json.dumps(SAMPLE))
        quick["quick"] = True
        quick["substrates"]["threaded"]["wall_s"] = 99.0
        make_envelope(tmp_path, "substrates", quick)
        trajectory.append_entry(tmp_path, out)
        assert trajectory.check_regression(out) == []


class TestCli:
    def test_append_then_check_roundtrip(self, tmp_path, capsys):
        make_envelope(tmp_path, "substrates", SAMPLE)
        assert trajectory.main(["append", "--dir", str(tmp_path)]) == 0
        assert trajectory.main(["check", "--dir", str(tmp_path)]) == 0
        assert "passed" in capsys.readouterr().out

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        make_envelope(tmp_path, "substrates", SAMPLE)
        trajectory.main(["append", "--dir", str(tmp_path)])
        bad = json.loads(json.dumps(SAMPLE))
        bad["substrates"]["threaded"]["wall_s"] = 99.0
        make_envelope(tmp_path, "substrates", bad)
        trajectory.main(["append", "--dir", str(tmp_path)])
        assert trajectory.main(["check", "--dir", str(tmp_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().err
