"""The ``python -m repro.analysis`` CLI and the waiver comment parser."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.analysis import AnalysisReport, collect_waivers, parse_waiver_line
from repro.analysis.cli import main, repo_report
from repro.analysis.rules import RULES


class TestWaiverParsing:
    def test_parse_full_waiver(self):
        w = parse_waiver_line(
            "x = 1  # analysis: waive G005 channel:debug_tap -- wired by the demo",
            origin="examples/demo.py:3",
        )
        assert w is not None
        assert (w.rule, w.location) == ("G005", "channel:debug_tap")
        assert w.reason == "wired by the demo"
        assert w.origin == "examples/demo.py:3"

    def test_parse_without_reason(self):
        assert parse_waiver_line("# analysis: waive P004 channel:frame") is None
        assert parse_waiver_line("# analysis: waive P004 channel:frame -- ") is None

    def test_a_waiver_without_a_reason_waives_nothing(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "# analysis: waive P004 channel:frame\n", encoding="utf-8"
        )
        report = AnalysisReport()
        report.add("P004", "graph:g/channel:frame", "concurrent consumers")
        assert report.apply_waivers(collect_waivers([tmp_path])) == 0
        assert [f.rule for f in report.active()] == ["P004"]
        assert not report.waived()

    def test_non_waiver_lines_ignored(self):
        assert parse_waiver_line("x = 1  # a normal comment") is None
        assert parse_waiver_line("# analysis: waive NOTARULE loc") is None

    def test_collect_from_tree(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "a = 1\nb = 2  # analysis: waive G005 channel:tap -- demo only\n",
            encoding="utf-8",
        )
        (waiver,) = collect_waivers([tmp_path])
        assert waiver.rule == "G005"
        assert waiver.origin.endswith("mod.py:2")


class TestCli:
    def test_repo_is_clean_at_strict(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        rc = main(["--strict", "-q", "--no-schedules", "--json", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["schema_version"] == 1
        assert data["counts"]["error"] == 0 and data["counts"]["warning"] == 0
        assert "error(s)" in captured.out

    def test_full_run_with_schedule_tables(self, capsys):
        rc = main(["--strict", "-q"])
        assert rc == 0, capsys.readouterr().out

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_repo_report_structure_only(self):
        report = repo_report(schedules=False)
        # Apply the repo's inline waivers, as the CLI does: the tracker's
        # T3/T5 chunk kernels are deliberately DataParallelSpec-free.
        src_root = Path(repro.__file__).resolve().parents[1]
        report.apply_waivers(collect_waivers([src_root]))
        assert report.ok(strict=True), report.summary()
        # The fan-out INFO findings (born-consumed try_get) are expected
        # and never gate.
        assert all(f.severity.name == "INFO" for f in report.active())
