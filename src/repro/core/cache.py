"""Content-addressed on-disk cache for off-line schedule solutions.

The off-line phase re-runs constantly during development — a table build
after touching one task's cost model re-solves every state, a fault sweep
re-solves every shape.  Almost all of those solves are byte-identical to
a previous run.  This cache keys each solved request by a stable digest
of everything that determines its answer:

* the evaluated task costs under the state (the
  :meth:`~repro.core.enumerate.SearchProblem.digest_payload`),
* the cluster shape and node speeds,
* the communication model's tier costs,
* the solver parameters that affect the result set
  (``max_solutions``, ``tolerance``, ``latency_slack``,
  ``bound_inflation``, and — for bounded requests — ``node_limit``).

Deliberately *excluded* from the key: the graph's display name, the
warm-start incumbent (proven semantics-preserving — it changes how fast
the answer is found, never the answer — and not even computed until a
fetch has missed: :func:`~repro.core.parallel.make_request` runs no
scheduler, so a hit costs digest → fetch → deserialize), and the
``node_limit`` of an exact or list request (a safety valve there, not a
result parameter: an exact search that blows it raises).  Nothing about a
past verification is stored either: an entry is a solution, and every
``verify`` re-checks it.

Entries are one JSON file per digest, written atomically
(temp-file-then-rename), layered on :mod:`repro.core.serialize` for the
payload format.  A corrupt or truncated entry counts as an invalidation:
it is deleted and the solve re-runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.schedule import ScheduleSolution
from repro.core.parallel import SolveRequest

__all__ = [
    "CacheStats",
    "ScheduleCache",
    "default_cache_dir",
    "request_digest",
]

_CACHE_FORMAT = "repro.schedule_solution"
# Version 2: solutions carry gap certificates (repro.approx); the bump
# retires every certificate-less entry written by older builds.
_CACHE_VERSION = 2

#: Request modes whose results are cacheable.  ``"solve"`` and ``"list"``
#: are both deterministic functions of the digested content;
#: ``"enumerate"`` results carry the full set S, which the materialization
#: cap makes run-configuration dependent.
_CACHEABLE_MODES = ("solve", "list")


def default_cache_dir() -> Path:
    """Resolve the cache root: env override, then XDG, then ``~/.cache``."""
    env = os.environ.get("REPRO_SCHEDULE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "schedules"


def request_digest(request: SolveRequest) -> str:
    """Stable hex digest identifying a request's *answer*.

    Two requests with equal digests are guaranteed the same solution; the
    digest is insensitive to the graph's name and the caller's ``tag``.
    A miss searches under the HEFT bound of the snapshot digested here and
    nothing else, so the entry it stores does not depend on which look-up,
    in which order, made it.
    """
    comm = request.comm
    if comm is None:
        comm_payload = None
    else:
        comm_payload = {
            tier: [cost.latency, cost.bandwidth]
            for tier, cost in (
                ("same_proc", comm.same_proc),
                ("intra_node", comm.intra_node),
                ("inter_node", comm.inter_node),
            )
        }
    payload = {
        "version": _CACHE_VERSION,
        "mode": request.mode,
        "problem": request.problem.digest_payload(),
        "state": dict(request.state),
        "cluster": {
            "procs_by_node": request.cluster.procs_by_node,
            "node_speeds": list(request.cluster.node_speeds),
        },
        "comm": comm_payload,
        "params": {
            "max_solutions": request.max_solutions,
            "tolerance": request.tolerance,
            "latency_slack": request.latency_slack,
            "bound_inflation": request.bound_inflation,
        },
    }
    if request.bound_inflation > 0.0:
        # A bounded search that blows its budget serves the HEFT fallback,
        # so the budget decides the answer.
        payload["node_limit"] = request.node_limit
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ScheduleCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    def summary(self) -> str:
        """One-line human-readable description."""
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({rate:.0%}), {self.stores} stores, "
            f"{self.invalidations} invalidations"
        )


@dataclass
class ScheduleCache:
    """Persistent solution store, one JSON file per request digest.

    >>> import tempfile
    >>> cache = ScheduleCache(tempfile.mkdtemp())
    >>> len(cache)
    0
    """

    root: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root) if self.root is not None else default_cache_dir()

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def fetch(self, request: SolveRequest) -> Optional[ScheduleSolution]:
        """The cached solution for ``request``, or ``None`` on a miss.

        Only ``mode="solve"`` and ``mode="list"`` requests are cacheable
        (enumeration results carry the full set S, which the cap makes
        run-configuration dependent); other modes always miss.
        """
        # Deferred import: serialize imports table which imports this module's
        # sibling parallel, so a top-level import would cycle.
        from repro.core.serialize import solution_from_dict

        if request.mode not in _CACHEABLE_MODES:
            self.stats.misses += 1
            return None
        path = self._path(request_digest(request))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if (
                payload.get("format") != _CACHE_FORMAT
                or payload.get("version") != _CACHE_VERSION
            ):
                raise ValueError("cache entry format mismatch")
            solution = solution_from_dict(payload["solution"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Corrupt, truncated, or written by an incompatible build:
            # drop it and let the caller re-solve.
            self.stats.invalidations += 1
            self.stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return solution

    def store(self, request: SolveRequest, solution: ScheduleSolution) -> None:
        """Persist ``solution`` under ``request``'s digest (atomic write)."""
        from repro.core.serialize import solution_to_dict

        if request.mode not in _CACHEABLE_MODES:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _CACHE_FORMAT,
            "version": _CACHE_VERSION,
            "digest": request_digest(request),
            "solution": solution_to_dict(solution),
        }
        # Only a machine reads an entry: compact separators keep the C
        # encoder (``indent`` forces the pure-Python one).  ``fetch`` parses
        # either layout, so indented entries from older builds still hit.
        blob = json.dumps(payload, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(payload["digest"]))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
