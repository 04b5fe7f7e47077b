"""Solver rungs: exact → bounded-suboptimality → list scheduling.

The paper can afford exhaustive enumeration because its applications have
"a very small number of tasks" and a small state set.  Where a table is
built, a spec string can trade that exactness for solve time one
certified rung at a time:

1. **exact** — :func:`repro.core.enumerate.search_schedules` run to
   completion; the served latency *is* L*.
2. **bounded** — the same search with every admissible lower bound
   inflated by ``(1 + ε)`` (weighted branch and bound): any served
   schedule is certified within ``(1 + ε)`` of L*, and the search stops
   at the first incumbent within ε of the static root bound.  A bounded
   request that blows its node budget serves the HEFT fallback.
3. **list** — the HEFT list scheduler (:mod:`repro.sched.listsched`),
   with the realized gap bounded against the critical-path/load root
   bound.

Every rung attaches a :class:`~repro.core.schedule.GapCertificate`, and
rule ``S013`` (:mod:`repro.analysis`) re-derives the root bound
independently — approximation stays as auditable as exactness.

A rung is nothing but the :func:`~repro.core.parallel.make_request`
keywords its spec names, layered over the scheduler's own settings by
:meth:`OptimalScheduler.request
<repro.core.optimal.OptimalScheduler.request>` — so every rung inherits
the cluster, communication model and caps from the same place, and runs
through the batch, the cache and the verifier like an exact request.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ScheduleError

__all__ = ["DEFAULT_EPSILON", "resolve_policy"]

#: Default ε for the bounded rung when a spec string names no budget.
DEFAULT_EPSILON = 0.1


def resolve_policy(spec: Optional[str]) -> dict:
    """The :func:`~repro.core.parallel.make_request` keywords of rung ``spec``.

    ``None`` and ``"exact"`` name the exact search (no keywords),
    ``"bounded"`` / ``"bounded:<ε>"`` the bounded search (default ε =
    0.1) and ``"list"`` the HEFT list schedule.  The request refuses an
    out-of-range ε by name.
    """
    if spec is None or spec == "exact":
        return {}
    if spec == "list":
        return {"mode": "list"}
    if spec == "bounded":
        return {"bound_inflation": DEFAULT_EPSILON}
    if isinstance(spec, str) and spec.startswith("bounded:"):
        try:
            return {"bound_inflation": float(spec[len("bounded:"):])}
        except ValueError:
            pass
    raise ScheduleError(
        f"unknown solve policy {spec!r} (expected exact | bounded[:eps] | list)"
    )
