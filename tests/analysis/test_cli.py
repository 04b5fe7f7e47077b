"""The ``python -m repro.analysis`` CLI."""

from __future__ import annotations

import json
import re

from repro.analysis.cli import main, repo_report
from repro.analysis.rules import RULES


class TestCli:
    def test_repo_is_clean_at_strict(self, tmp_path, capsys):
        out = tmp_path / "findings.json"
        rc = main(["--strict", "-q", "--no-schedules", "--json", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["schema_version"] == 2
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

    def test_list_rules_lists_exactly_the_live_passes_rules(self, capsys):
        """One catalog line per rule, and only the families a pass still
        reports: graph lint (G), schedule, fleet and workload verification
        (S, F, W), the model checker (M) and STM wiring (P)."""
        assert main(["--list-rules"]) == 0
        listed = re.findall(r"^([A-Z]\d{3}) ", capsys.readouterr().out, re.M)
        assert sorted(listed) == sorted(RULES)
        assert {rule_id[0] for rule_id in listed} == set("FGMPSW")

    def test_repo_report_structure_only(self):
        report = repo_report(schedules=False)
        assert report.ok(strict=True), report.summary()
        # The fan-out INFO findings (born-consumed try_get) are expected
        # and never gate.
        assert all(f.severity.name == "INFO" for f in report.active())
