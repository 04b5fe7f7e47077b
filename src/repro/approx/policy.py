"""The solver ladder: exact → bounded-suboptimality → list scheduling.

The paper can afford exhaustive enumeration because its applications have
"a very small number of tasks" and a small state set.  The fleet layer,
degraded-shape tables and heterogeneous widths multiply (state × width ×
shape) until exact branch and bound becomes the admission-latency
bottleneck — the *enumeration cliff*.  This module climbs down that cliff
one certified rung at a time:

1. **exact** — :func:`repro.core.enumerate.search_schedules` run to
   completion; the served latency *is* L*.
2. **bounded** — the same search with every admissible lower bound
   inflated by ``(1 + ε)`` (weighted branch and bound): any served
   schedule is certified within ``(1 + ε)`` of L*, and the search stops
   at the first incumbent within ε of the static root bound.
3. **list** — the HEFT list scheduler (:mod:`repro.sched.listsched`),
   with the realized gap bounded against the critical-path/load root
   bound.

Every rung attaches a :class:`~repro.core.optimal.GapCertificate`, and
rule ``S013`` (:mod:`repro.analysis`) re-derives the root bound
independently — approximation stays as auditable as exactness.

A policy is *request-shaped*: it turns ``(scheduler, graph, state)`` into
one picklable :class:`~repro.core.parallel.SolveRequest`, so every
existing fan-out path — process-pool table builds, the on-disk cache,
ShapeTable, fleet width banks — runs any rung unchanged.  There is one
request builder, :meth:`OptimalScheduler.request
<repro.core.optimal.OptimalScheduler.request>`; a rung is only the
:func:`~repro.core.parallel.make_request` keywords it changes
(:attr:`SolvePolicy.overrides`), so every rung inherits the scheduler's
cluster, communication model and caps from the same place.
"""

from __future__ import annotations

from typing import Any, Union

from repro.core.optimal import OptimalScheduler, ScheduleSolution
from repro.core.parallel import SolveRequest, solve_many
from repro.errors import ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.state import State

__all__ = [
    "SolvePolicy",
    "ExactPolicy",
    "BoundedPolicy",
    "ListPolicy",
    "PolicyLadder",
    "resolve_policy",
]

#: Default ε for the bounded rung when a spec string names no budget.
DEFAULT_EPSILON = 0.1


class SolvePolicy:
    """One rung (or composition of rungs) of the solver ladder.

    A subclass contributes :attr:`overrides` — the
    :func:`~repro.core.parallel.make_request` keywords in which its
    request differs from the scheduler's exact one; :meth:`solve` is the
    shared in-process convenience path (used by the lazy table on a miss).
    """

    name: str = "abstract"
    overrides: dict = {}

    def request(
        self,
        scheduler: OptimalScheduler,
        graph: TaskGraph,
        state: State,
        tag: Any = None,
    ) -> SolveRequest:
        """A picklable request that executes this policy for one state."""
        return scheduler.request(graph, state, tag=tag, **self.overrides)

    def solve(
        self,
        graph: TaskGraph,
        state: State,
        scheduler: OptimalScheduler,
        cache=None,
    ) -> ScheduleSolution:
        """Execute the policy in-process, through the cache when wired."""
        request = self.request(scheduler, graph, state)
        return solve_many([request], workers=1, cache=cache)[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ExactPolicy(SolvePolicy):
    """Rung 1: the paper's exhaustive branch and bound, unchanged."""

    name = "exact"


class BoundedPolicy(SolvePolicy):
    """Rung 2: weighted branch and bound, certified within ``(1 + ε)``.

    ``epsilon=0`` is a valid budget and degenerates to the exact search
    *bit for bit* — the request it builds is field-for-field identical to
    :class:`ExactPolicy`'s, so even the cache digests coincide.
    """

    name = "bounded"

    def __init__(self, epsilon: float = DEFAULT_EPSILON) -> None:
        if not epsilon >= 0.0:  # NaN is refused too
            raise ScheduleError(f"epsilon must be >= 0, got {epsilon}")
        self.epsilon = float(epsilon)
        self.overrides = {"bound_inflation": self.epsilon}

    def __repr__(self) -> str:
        return f"BoundedPolicy(epsilon={self.epsilon:g})"


class ListPolicy(SolvePolicy):
    """Rung 3: HEFT list scheduling; gap reported against the root bound."""

    name = "list"
    overrides = {"mode": "list"}


class PolicyLadder(SolvePolicy):
    """All three rungs in one request: exact, then bounded, then list.

    The exact stage runs under ``exact_budget`` branch-and-bound nodes;
    blowing it escalates to the bounded stage under ``bounded_budget``;
    blowing that serves the HEFT fallback.  Escalation happens *inside*
    :func:`~repro.core.parallel.execute_request`, so it works identically
    in-process and in pool workers, and the stage budgets are part of the
    cache digest (they decide which rung answers).
    """

    name = "ladder"

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        exact_budget: int = 100_000,
        bounded_budget: int = 500_000,
    ) -> None:
        if not epsilon >= 0.0:  # NaN is refused too
            raise ScheduleError(f"epsilon must be >= 0, got {epsilon}")
        if exact_budget < 1 or bounded_budget < 1:
            raise ScheduleError("ladder stage budgets must be >= 1")
        self.epsilon = float(epsilon)
        self.exact_budget = int(exact_budget)
        self.bounded_budget = int(bounded_budget)
        self.overrides = {
            "node_limit": self.exact_budget,
            "ladder": ((self.epsilon, self.bounded_budget),),
        }

    def __repr__(self) -> str:
        return (
            f"PolicyLadder(epsilon={self.epsilon:g}, "
            f"budgets={self.exact_budget}/{self.bounded_budget})"
        )


def resolve_policy(
    spec: Union[None, str, SolvePolicy],
) -> SolvePolicy:
    """A :class:`SolvePolicy` from a spec string (or pass-through).

    Accepted strings: ``"exact"``, ``"list"``, ``"bounded"`` /
    ``"bounded:<ε>"`` and ``"ladder"`` / ``"ladder:<ε>"`` (default ε =
    0.1).  ``None`` resolves to exact — the pre-ladder behavior.
    """
    if spec is None:
        return ExactPolicy()
    if isinstance(spec, SolvePolicy):
        return spec
    if not isinstance(spec, str):
        raise ScheduleError(f"not a solve policy: {spec!r}")
    name, _, arg = spec.partition(":")
    try:
        if name == "exact" and not arg:
            return ExactPolicy()
        if name == "list" and not arg:
            return ListPolicy()
        if name == "bounded":
            return BoundedPolicy(float(arg) if arg else DEFAULT_EPSILON)
        if name == "ladder":
            return PolicyLadder(float(arg) if arg else DEFAULT_EPSILON)
    except ValueError:
        raise ScheduleError(f"malformed solve policy spec {spec!r}") from None
    raise ScheduleError(
        f"unknown solve policy {spec!r} "
        "(expected exact | bounded[:eps] | list | ladder[:eps])"
    )
