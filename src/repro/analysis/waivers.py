"""Inline waiver comments: accepted findings, declared next to their cause.

Syntax, in a ``#`` comment anywhere in a Python source file::

    # analysis: waive G005 channel:debug_tap -- kept for the obs demo

i.e. ``waive <RULE> <location-fragment> -- <reason>``.  The location
fragment matches by substring against a finding's object path (see
:class:`~repro.analysis.findings.Waiver`), so waivers stay short and
survive graph renames that keep the channel/task name.  The reason is
mandatory: a comment without ``-- <reason>`` is no waiver, and the finding
it names keeps gating.  Only real comments count: the same text inside a
string literal (like the example above) declares nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
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
        for row, comment in _comments(text):
            w = parse_waiver_line(comment, origin=f"{f}:{row}")
            if w is not None:
                out.append(w)
    return out


def _comments(text: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every ``#`` comment in ``text`` — a string
    literal that looks like one (a docstring's example) is not a comment.
    A file that stops tokenizing keeps the comments before the fault."""
    out: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.string))
    except (tokenize.TokenError, SyntaxError):
        pass
    return out
