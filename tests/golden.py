"""Frozen results: what a differential test compares against once the
reference implementation it used to run beside the code under test is gone.

A fixture is one JSON object per file, one grid case per line, with every
float written as ``float.hex()`` so that a value reads back bit for bit.
:func:`encode` is the one conversion (floats to hex strings, tuples to
lists, recursively), so a value the code under test produces is compared
with a frozen one by encoding it the same way; :func:`times` reads a frozen
``{timestamp: time}`` table back into floats for the tests that compare
within a tolerance.

The two frozen differential grids (``runtime/golden_static.json``,
``faults/golden_faults.json``) hold, per case, what the generator body
reported: ``completed``, ``completion_times`` and ``digitize_times``,
``horizon``, every span as ``[proc, task, timestamp, preempted, start,
end]`` sorted, STM traffic as sorted ``[channel, kind, task, count]``,
the GC totals and the ``meta`` entries the test reads.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable


def encode(value: Any) -> Any:
    """``value`` with every float as ``float.hex()`` and every tuple a list."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    return value


def times(frozen: dict[str, str]) -> dict[int, float]:
    """A frozen ``{timestamp: time}`` table as ints and floats again."""
    return {int(ts): float.fromhex(t) for ts, t in frozen.items()}


def digest(rows: Iterable[Any]) -> str:
    """SHA-256 of the encoded rows, one JSON line each: a bitwise pin on a
    sequence too long to keep in a fixture."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(encode(row)).encode())
        h.update(b"\n")
    return h.hexdigest()


def load(path: Path) -> dict[str, Any]:
    """The fixture at ``path``; a key written twice is an error, not a
    silently dropped case."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        keys = [key for key, _value in pairs]
        assert len(keys) == len(set(keys)), f"{path.name}: duplicate keys"
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique)


def dump(path: Path, cases: dict[str, Any]) -> None:
    """Write ``cases`` sorted by key, one case per line."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
        for key in sorted(cases)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
