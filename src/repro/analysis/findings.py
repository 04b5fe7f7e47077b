"""Findings, severities, and the machine-readable analysis report.

Every analysis pass produces :class:`Finding` objects and appends them to
an :class:`AnalysisReport`.  A finding names the violated rule, where the
violation lives (a ``kind:name/kind:name`` object path, since the analyzer
works on in-memory artifacts rather than source lines), what went wrong,
and how to fix it.  The report serializes to JSON for the CI artifact and
renders a human summary for the CLI.  Nothing is waived: a finding that
gates is fixed, or the code it names is deleted.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = ["Severity", "Finding", "AnalysisReport"]

#: Bumped when the JSON schema changes shape.
REPORT_SCHEMA_VERSION = 2


class Severity(enum.IntEnum):
    """Finding severity; higher is worse, so findings sort naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30


@dataclass(frozen=True)
class Finding:
    """One rule violation in one artifact.

    Attributes
    ----------
    rule:
        Rule id from the catalog (e.g. ``"G003"``).
    severity:
        :class:`Severity` of this occurrence (defaults to the rule's).
    location:
        Object path of the violation, e.g.
        ``"graph:color-tracker/channel:frame"`` or
        ``"table:chain/state:State(n_models=3)"``.
    message:
        What is wrong, with the offending names and numbers inline.
    hint:
        How to fix it.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name.lower(),
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


class AnalysisReport:
    """An ordered collection of findings with gating and serialization.

    The gate levels mirror the CLI: by default only ERROR findings fail an
    artifact; ``--strict`` also fails on WARNING.  INFO findings never
    gate — they exist to surface suspicious-but-legal structure.
    """

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self.findings: list[Finding] = list(findings)

    # -- building -----------------------------------------------------------

    def add(
        self,
        rule: str,
        location: str,
        message: str,
        hint: str = "",
        severity: Optional[Severity] = None,
    ) -> Finding:
        """Append a finding for ``rule``; severity defaults to the rule's."""
        from repro.analysis.rules import get_rule  # deferred: avoids cycle

        spec = get_rule(rule)
        finding = Finding(
            rule=rule,
            severity=severity if severity is not None else spec.severity,
            location=location,
            message=message,
            hint=hint or spec.hint,
        )
        self.findings.append(finding)
        return finding

    def extend(self, other: "AnalysisReport") -> "AnalysisReport":
        """Merge another report's findings into this one."""
        self.findings.extend(other.findings)
        return self

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def active(self, min_severity: Severity = Severity.INFO) -> list[Finding]:
        """Findings at or above ``min_severity``, worst first."""
        out = [f for f in self.findings if f.severity >= min_severity]
        out.sort(key=lambda f: (-int(f.severity), f.rule, f.location))
        return out

    @property
    def errors(self) -> list[Finding]:
        return self.active(Severity.ERROR)

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.active(Severity.WARNING) if f.severity == Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        """True when nothing gates: no errors (and no warnings if strict)."""
        gate = Severity.WARNING if strict else Severity.ERROR
        return not self.active(gate)

    def counts(self) -> dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for f in self.findings:
            out[f.severity.name.lower()] += 1
        return out

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def summary(self) -> str:
        """Human-readable multi-line summary, worst findings first."""
        lines: list[str] = []
        for f in self.active():
            lines.append(
                f"{f.severity.name.lower():7s} {f.rule} {f.location}: {f.message}"
                + (f"  [fix: {f.hint}]" if f.hint else "")
            )
        c = self.counts()
        lines.append(
            f"{c['error']} error(s), {c['warning']} warning(s), "
            f"{c['info']} info"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"AnalysisReport(errors={c['error']}, warnings={c['warning']}, "
            f"info={c['info']})"
        )
