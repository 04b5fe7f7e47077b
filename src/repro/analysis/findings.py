"""Findings, severities, and the machine-readable analysis report.

Every analysis pass produces :class:`Finding` objects and appends them to
an :class:`AnalysisReport`.  A finding names the violated rule, where the
violation lives (a ``kind:name/kind:name`` object path, since the analyzer
works on in-memory artifacts rather than source lines), what went wrong,
and how to fix it.  The report serializes to JSON for the CI artifact and
renders a human summary for the CLI.

Waivers suppress accepted findings: a waived finding stays in the report
(honesty over silence) but does not gate ``--strict``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

__all__ = ["Severity", "Finding", "Waiver", "AnalysisReport"]

#: Bumped when the JSON schema changes shape.
REPORT_SCHEMA_VERSION = 1


class Severity(enum.IntEnum):
    """Finding severity; higher is worse, so findings sort naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None


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
        How to fix it (or how to waive it, for accepted exceptions).
    waived:
        True once a waiver matched; waived findings never gate.
    waiver_reason:
        The waiver's stated justification, echoed into the report.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""
    waived: bool = False
    waiver_reason: str = ""

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity.name.lower(),
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }
        if self.waived:
            out["waived"] = True
            out["waiver_reason"] = self.waiver_reason
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            rule=data["rule"],
            severity=Severity.parse(data["severity"]),
            location=data["location"],
            message=data["message"],
            hint=data.get("hint", ""),
            waived=bool(data.get("waived", False)),
            waiver_reason=data.get("waiver_reason", ""),
        )


@dataclass(frozen=True)
class Waiver:
    """An accepted finding: rule id + location fragment + justification.

    A waiver matches a finding when the rule id is equal and ``location``
    is a substring of the finding's location (so ``channel:debug_tap``
    matches wherever that channel shows up).  Source files declare waivers
    with an inline comment — see :mod:`repro.analysis.waivers`.
    """

    rule: str
    location: str
    reason: str = ""
    origin: str = ""  # file:line of the waiver comment, for the report

    def matches(self, finding: Finding) -> bool:
        return finding.rule == self.rule and self.location in finding.location


class AnalysisReport:
    """An ordered collection of findings with gating and serialization.

    The gate levels mirror the CLI: by default only ERROR findings fail an
    artifact; ``--strict`` also fails on WARNING.  INFO findings never
    gate — they exist to surface suspicious-but-legal structure.
    """

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self.findings: list[Finding] = list(findings)
        self.waivers_applied: list[Waiver] = []

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
        """Merge another report's findings (and applied waivers) into this one."""
        self.findings.extend(other.findings)
        self.waivers_applied.extend(other.waivers_applied)
        return self

    def apply_waivers(self, waivers: Iterable[Waiver]) -> int:
        """Mark matching findings waived; returns how many were waived."""
        waivers = list(waivers)
        n = 0
        for i, finding in enumerate(self.findings):
            if finding.waived:
                continue
            for waiver in waivers:
                if waiver.matches(finding):
                    self.findings[i] = replace(
                        finding, waived=True, waiver_reason=waiver.reason
                    )
                    if waiver not in self.waivers_applied:
                        self.waivers_applied.append(waiver)
                    n += 1
                    break
        return n

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def active(self, min_severity: Severity = Severity.INFO) -> list[Finding]:
        """Non-waived findings at or above ``min_severity``, worst first."""
        out = [
            f
            for f in self.findings
            if not f.waived and f.severity >= min_severity
        ]
        out.sort(key=lambda f: (-int(f.severity), f.rule, f.location))
        return out

    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.waived]

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
        out = {"error": 0, "warning": 0, "info": 0, "waived": 0}
        for f in self.findings:
            if f.waived:
                out["waived"] += 1
            else:
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

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        return cls(Finding.from_dict(f) for f in data.get("findings", ()))

    def summary(self, show_waived: bool = False) -> str:
        """Human-readable multi-line summary, worst findings first."""
        lines: list[str] = []
        for f in self.active():
            lines.append(
                f"{f.severity.name.lower():7s} {f.rule} {f.location}: {f.message}"
                + (f"  [fix: {f.hint}]" if f.hint else "")
            )
        if show_waived:
            for f in self.waived():
                lines.append(
                    f"waived  {f.rule} {f.location}: {f.message}"
                    + (f"  [{f.waiver_reason}]" if f.waiver_reason else "")
                )
        c = self.counts()
        lines.append(
            f"{c['error']} error(s), {c['warning']} warning(s), "
            f"{c['info']} info, {c['waived']} waived"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"AnalysisReport(errors={c['error']}, warnings={c['warning']}, "
            f"info={c['info']}, waived={c['waived']})"
        )
