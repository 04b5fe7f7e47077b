"""repro.approx — the bounded-suboptimality solver rungs.

ROADMAP item 2: escape the enumeration cliff.  The paper's exhaustive
branch and bound (Figure 6) stays the gold standard; where a table is
built, a spec string may trade *certified* optimality gaps for solve
time:

* :mod:`repro.approx.policy` —
  :func:`~repro.approx.policy.resolve_policy`, which maps a spec string
  (``"exact"`` | ``"bounded[:ε]"`` | ``"list"``) to the request keywords
  of its rung (exact → bounded ``L*·(1+ε)`` → HEFT list fallback);
* :mod:`repro.approx.lazy` —
  :class:`~repro.approx.lazy.LazyScheduleTable`, a table that solves the
  state it is asked for on its first look-up, through the shared
  :class:`~repro.core.cache.ScheduleCache`.

Every served schedule carries a
:class:`~repro.core.schedule.GapCertificate`; rule ``S013``
(:mod:`repro.analysis`) re-derives its root bound independently, so a
wrong gap claim is a verifier ERROR, not a silent quality loss.
"""

from __future__ import annotations

from repro.approx.lazy import LazyScheduleTable
from repro.approx.policy import DEFAULT_EPSILON, resolve_policy

__all__ = ["DEFAULT_EPSILON", "resolve_policy", "LazyScheduleTable"]
