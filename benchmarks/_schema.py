"""One schema for every ``BENCH_*.json`` the benchmark harness emits.

Each ``bench_*`` module used to hand-roll its own ``json.dumps`` with its
own top-level keys, which made the CI artifacts impossible to consume
uniformly.  All emitters now go through :func:`write_bench`, which wraps
the module's results in a fixed envelope::

    {
      "bench": "fleet",             # which bench_ module produced this
      "schema_version": 1,
      "host": {"platform": ..., "python": ..., "cpus": ...},
      "results": { ... }            # the module's own payload, unchanged
    }

Consumers key on ``bench`` + ``schema_version`` and never need to guess a
module's layout to find the metadata.  Bump ``SCHEMA_VERSION`` when the
envelope (not a module payload) changes shape.

The files land in ``benchmarks/out/`` (git-ignored): a run records the
host it ran on, so its output is an artifact, never a committed file.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

SCHEMA_VERSION = 1

#: Where every ``BENCH_<bench>.json`` is written (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

__all__ = ["SCHEMA_VERSION", "OUT_DIR", "host_info", "write_bench"]


def host_info() -> dict:
    try:  # CPUs this process may actually run on (affinity-aware)
        cpus = len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": cpus,
    }


def write_bench(bench: str, results: dict) -> Path:
    """Write ``results`` under the shared envelope; return the file's path.

    ``bench`` is the short module name ("fleet", "analysis", ...); the
    file is ``OUT_DIR / "BENCH_<bench>.json"``.
    """
    payload = {
        "bench": bench,
        "schema_version": SCHEMA_VERSION,
        "host": host_info(),
        "results": results,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{bench}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
