"""repro.approx — the bounded-suboptimality scheduling ladder.

ROADMAP item 2: escape the enumeration cliff.  The paper's exhaustive
branch and bound (Figure 6) stays the gold standard, but multi-tenancy,
degraded shapes and heterogeneous widths multiply the number of solves
until exactness becomes the latency bottleneck.  This package trades
*certified* optimality gaps for solve time:

* :mod:`repro.approx.policy` — the three-rung
  :class:`~repro.approx.policy.SolvePolicy` ladder (exact → bounded
  ``L*·(1+ε)`` → HEFT list fallback) plus
  :class:`~repro.approx.policy.PolicyLadder`, which packs all rungs
  into one picklable request with per-rung node budgets;
* :mod:`repro.approx.lazy` —
  :class:`~repro.approx.lazy.LazyScheduleTable`, a table that solves the
  state it is asked for on its first look-up, through the shared
  :class:`~repro.core.cache.ScheduleCache`.

Every served schedule carries a
:class:`~repro.core.optimal.GapCertificate`; rule ``S013``
(:mod:`repro.analysis`) re-derives its root bound independently, so a
wrong gap claim is a verifier ERROR, not a silent quality loss.
"""

from __future__ import annotations

from repro.approx.lazy import LazyScheduleTable
from repro.approx.policy import (
    DEFAULT_EPSILON,
    BoundedPolicy,
    ExactPolicy,
    ListPolicy,
    PolicyLadder,
    SolvePolicy,
    resolve_policy,
)

__all__ = [
    "DEFAULT_EPSILON",
    "SolvePolicy",
    "ExactPolicy",
    "BoundedPolicy",
    "ListPolicy",
    "PolicyLadder",
    "resolve_policy",
    "LazyScheduleTable",
]
