"""Report mechanics: severities, gating, serialization, catalog."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import AnalysisReport, Severity
from repro.analysis.rules import RULES, get_rule


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR


class TestCatalog:
    def test_ids_well_formed(self):
        for rid, rule in RULES.items():
            assert re.fullmatch(r"[GSPRFWM]\d{3}", rid)
            assert rule.id == rid

    def test_every_rule_documented(self):
        for rule in RULES.values():
            assert rule.name and rule.description and rule.hint

    def test_names_unique(self):
        names = [r.name for r in RULES.values()]
        assert len(names) == len(set(names))

    def test_get_rule_unknown(self):
        with pytest.raises(ValueError, match="unknown analysis rule"):
            get_rule("X999")

    def test_every_rule_has_a_seeded_fixture(self):
        """Each cataloged rule id must appear in some test in this suite."""
        here = Path(__file__).parent
        corpus = "".join(
            f.read_text(encoding="utf-8")
            for f in here.glob("test_*.py")
            if f.name != Path(__file__).name
        )
        missing = [rid for rid in RULES if rid not in corpus]
        assert not missing, f"rules without a test fixture: {missing}"


class TestReport:
    def test_add_uses_rule_severity_and_hint(self):
        rep = AnalysisReport()
        f = rep.add("G003", "graph:g/channel:c", "boom")
        assert f.severity is Severity.ERROR
        assert f.hint == get_rule("G003").hint

    def test_add_severity_override(self):
        rep = AnalysisReport()
        f = rep.add("G010", "loc", "msg", severity=Severity.ERROR)
        assert f.severity is Severity.ERROR

    def test_add_unknown_rule(self):
        with pytest.raises(ValueError):
            AnalysisReport().add("Z000", "loc", "msg")

    def test_gating_levels(self):
        rep = AnalysisReport()
        rep.add("P004", "loc", "info-level")  # INFO
        assert rep.ok() and rep.ok(strict=True)
        rep.add("G005", "loc", "warning-level")  # WARNING
        assert rep.ok() and not rep.ok(strict=True)
        rep.add("G003", "loc", "error-level")  # ERROR
        assert not rep.ok() and not rep.ok(strict=True)

    def test_active_sorts_worst_first(self):
        rep = AnalysisReport()
        rep.add("P004", "a", "m")
        rep.add("G003", "b", "m")
        rep.add("G005", "c", "m")
        assert [f.severity for f in rep.active()] == [
            Severity.ERROR,
            Severity.WARNING,
            Severity.INFO,
        ]

    def test_extend_merges(self):
        a, b = AnalysisReport(), AnalysisReport()
        a.add("G003", "x", "m")
        b.add("G005", "y", "m")
        a.extend(b)
        assert len(a) == 2

    def test_counts_and_summary(self):
        rep = AnalysisReport()
        rep.add("G003", "loc", "m")
        rep.add("G005", "loc", "m")
        assert rep.counts() == {"error": 1, "warning": 1, "info": 0}
        assert rep.summary().splitlines()[-1] == "1 error(s), 1 warning(s), 0 info"


class TestSerialization:
    def test_round_trip(self):
        rep = AnalysisReport()
        rep.add("G003", "graph:g/channel:c", "msg")
        rep.add("G005", "graph:g/channel:d", "msg2")
        data = json.loads(rep.to_json())
        assert data == rep.to_dict()
        assert data["schema_version"] == 2
        assert data["counts"] == {"error": 1, "warning": 1, "info": 0}
        assert [f["rule"] for f in data["findings"]] == ["G003", "G005"]
        assert set(data["findings"][1]) == {
            "rule", "severity", "location", "message", "hint"
        }
