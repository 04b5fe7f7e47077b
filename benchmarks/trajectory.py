"""Performance trajectory: append bench summaries, flag regressions.

Every CI bench run produces ``BENCH_*.json`` envelopes (see
:mod:`_schema`).  Those are snapshots — useful alone, but silent about
*drift*.  This CLI strings them into a ``BENCH_trajectory.json`` history
and turns the history into a gate::

    python benchmarks/trajectory.py append     # record current BENCH_*.json
    python benchmarks/trajectory.py check      # fail on >10% regression

``append`` collects every envelope in the benchmarks directory into one
trajectory entry (host info + flattened numeric metrics per bench) and
appends it to ``BENCH_trajectory.json``.  ``check`` compares the newest
entry against the most recent *comparable* previous entry — same
platform/CPU fingerprint and same quick-mode flag, so a laptop run never
gates against a CI runner — and exits non-zero when a lower-is-better
metric (wall seconds, latency, round trips, II searches run by the
``pipeline_step`` row) grew by more than the tolerance, or a
higher-is-better metric (speedup, reduction ratio) shrank by more than it.

Only steady metrics gate: keys matching :data:`GATED_PATTERNS` below.
Raw wall-clock numbers from ladder rungs the host could not parallelize
(``asserted: false``) are recorded but never compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from _schema import SCHEMA_VERSION, host_info

__all__ = [
    "append_entry",
    "check_regression",
    "collect_benches",
    "flatten_metrics",
    "load_trajectory",
]

TRAJECTORY_NAME = "BENCH_trajectory.json"

#: (substring, direction) — a metric participates in the regression gate
#: iff its flattened dotted path contains one of these substrings.
#: ``"lower"`` fails when the value grows, ``"higher"`` when it shrinks.
GATED_PATTERNS: tuple[tuple[str, str], ...] = (
    ("wall_s", "lower"),
    ("ii_searches", "lower"),  # Figure 6 step 3: exact searches per solve
    ("latency", "lower"),
    ("roundtrips_per_frame", "lower"),
    ("reduction_ratio", "higher"),
    ("speedup", "higher"),
)


def _direction(path: str) -> str | None:
    for needle, direction in GATED_PATTERNS:
        if needle in path:
            return direction
    return None


def flatten_metrics(results: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a results payload as ``dotted.path -> value``.

    Booleans and non-numeric leaves are dropped; subtrees whose own
    ``asserted`` flag is false (an unasserted ladder rung) are dropped
    wholesale — their timings are honest but not comparable.
    """
    flat: dict[str, float] = {}
    if results.get("asserted") is False:
        return flat
    for key, value in results.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{path}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


def collect_benches(bench_dir: Path) -> dict[str, dict]:
    """Read every ``BENCH_*.json`` envelope into trajectory bench records."""
    benches: dict[str, dict] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        if path.name == TRAJECTORY_NAME:
            continue
        try:
            envelope = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        name = envelope.get("bench")
        results = envelope.get("results")
        if not name or not isinstance(results, dict):
            continue
        benches[name] = {
            "quick": bool(results.get("quick", False)),
            "skipped": results.get("skipped")
            or (results.get("substrates") or {}).get("skipped"),
            "metrics": flatten_metrics(results),
        }
    return benches


def load_trajectory(path: Path) -> list[dict]:
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    entries = data.get("entries", []) if isinstance(data, dict) else data
    return entries if isinstance(entries, list) else []


def append_entry(bench_dir: Path, out_path: Path | None = None) -> dict:
    """Record the current envelopes as one trajectory entry; returns it."""
    out_path = out_path or bench_dir / TRAJECTORY_NAME
    benches = collect_benches(bench_dir)
    if not benches:
        raise SystemExit(f"no BENCH_*.json envelopes found in {bench_dir}")
    entry = {
        "schema_version": SCHEMA_VERSION,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": host_info(),
        "benches": benches,
    }
    entries = load_trajectory(out_path)
    entries.append(entry)
    out_path.write_text(
        json.dumps({"schema_version": SCHEMA_VERSION, "entries": entries},
                   indent=2) + "\n"
    )
    return entry


def _fingerprint(entry: dict) -> tuple:
    host = entry.get("host", {})
    return (host.get("platform"), host.get("cpus"))


def check_regression(
    path: Path, tolerance: float = 0.10
) -> list[str]:
    """Regression messages for the newest entry vs its comparable past.

    Empty list means pass.  An entry with no comparable predecessor
    passes vacuously (first run on a host seeds the baseline).  A
    lower-is-better metric whose baseline is 0 has no relative tolerance:
    it must stay zero (a one-node run's broker round trips per frame).
    """
    entries = load_trajectory(path)
    if not entries:
        raise SystemExit(f"no trajectory entries in {path}; run append first")
    current = entries[-1]
    fingerprint = _fingerprint(current)
    failures: list[str] = []
    for name, bench in current["benches"].items():
        previous = None
        for old in reversed(entries[:-1]):
            old_bench = old.get("benches", {}).get(name)
            if (
                old_bench is not None
                and _fingerprint(old) == fingerprint
                and old_bench.get("quick") == bench.get("quick")
            ):
                previous = old_bench
                break
        if previous is None:
            continue
        for metric, value in bench["metrics"].items():
            direction = _direction(metric)
            if direction is None or metric not in previous["metrics"]:
                continue
            base = previous["metrics"][metric]
            if base <= 0:
                if direction == "lower" and base == 0 and value > 0:
                    failures.append(
                        f"{name}:{metric} must stay zero, got {value:.4g}")
                continue
            if direction == "lower" and value > base * (1 + tolerance):
                failures.append(
                    f"{name}:{metric} regressed {value:.4g} vs {base:.4g} "
                    f"(+{(value / base - 1) * 100:.1f}% > "
                    f"{tolerance * 100:.0f}%)"
                )
            elif direction == "higher" and value < base * (1 - tolerance):
                failures.append(
                    f"{name}:{metric} regressed {value:.4g} vs {base:.4g} "
                    f"(-{(1 - value / base) * 100:.1f}% > "
                    f"{tolerance * 100:.0f}%)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("append", "check"))
    parser.add_argument(
        "--dir", type=Path, default=Path(__file__).parent,
        help="directory holding the BENCH_*.json envelopes",
    )
    parser.add_argument(
        "--trajectory", type=Path, default=None,
        help=f"trajectory file (default <dir>/{TRAJECTORY_NAME})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative regression tolerance for check (default 0.10)",
    )
    args = parser.parse_args(argv)
    trajectory = args.trajectory or args.dir / TRAJECTORY_NAME
    if args.command == "append":
        entry = append_entry(args.dir, trajectory)
        names = ", ".join(sorted(entry["benches"]))
        print(f"appended entry #{len(load_trajectory(trajectory))} "
              f"({names}) to {trajectory}")
        return 0
    failures = check_regression(trajectory, tolerance=args.tolerance)
    if failures:
        for line in failures:
            print(f"REGRESSION {line}", file=sys.stderr)
        return 1
    print("trajectory check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
