"""Inline waiver comments: accepted findings, declared next to their cause.

Syntax, anywhere in a Python source line::

    # analysis: waive G005 channel:debug_tap -- kept for the obs demo

i.e. ``waive <RULE> <location-fragment> -- <reason>``.  The location
fragment matches by substring against a finding's object path (see
:class:`~repro.analysis.findings.Waiver`), so waivers stay short and
survive graph renames that keep the channel/task name.  The reason is
mandatory: a comment without ``-- <reason>`` is no waiver, and the finding
it names keeps gating.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Union

from repro.analysis.findings import Waiver

__all__ = ["parse_waiver_line", "collect_waivers"]

_WAIVER_RE = re.compile(
    r"#\s*analysis:\s*waive\s+"
    r"(?P<rule>[A-Z]\d{3})\s+"
    r"(?P<location>\S+)"
    r"\s+--\s+(?P<reason>\S.*?)\s*$"
)


def parse_waiver_line(line: str, origin: str = "") -> Union[Waiver, None]:
    """The :class:`Waiver` declared on ``line``, or None."""
    m = _WAIVER_RE.search(line)
    if m is None:
        return None
    return Waiver(
        rule=m.group("rule"),
        location=m.group("location"),
        reason=m.group("reason"),
        origin=origin,
    )


def collect_waivers(paths: Iterable[Union[str, Path]]) -> list[Waiver]:
    """All waivers declared in the given files (directories scan ``*.py``)."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
    out: list[Waiver] = []
    for f in files:
        try:
            text = f.read_text(encoding="utf-8")
        except OSError:
            continue
        for i, line in enumerate(text.splitlines(), start=1):
            w = parse_waiver_line(line, origin=f"{f}:{i}")
            if w is not None:
                out.append(w)
    return out
