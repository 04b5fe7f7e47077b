"""Incremental re-solve: warm-start a state from its neighbor's schedule.

§3.4's regime changes are *local* — the tracker goes from 3 people to 4,
not from 3 to 300.  Adjacent states therefore tend to share schedule
structure, and a neighbor's already-solved schedule, re-costed under the
new state, is usually a far tighter incumbent than the cold HEFT warm
start.  A tighter incumbent prunes more of the branch-and-bound tree
from node 1; for the bounded rung it can trigger the early cutoff before
the search even branches.

Soundness is inherited, not re-proven: a re-costed schedule is *replayed*
placement by placement under the new costs (same task → variant → processor
assignment, fresh start times and durations), so its latency is the latency
of a legal schedule — exactly what the search accepts as an incumbent
upper bound.  Cross-state reuse of the transposition table would *not* be
sound (its signatures embed rounded start/duration values, which change
with the costs), so only the incumbent crosses states.
"""

from __future__ import annotations

from typing import Optional

from repro.core.enumerate import SearchProblem
from repro.core.parallel import SolveRequest
from repro.core.schedule import IterationSchedule, Placement
from repro.errors import ReproError
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State, StateSpace

__all__ = ["recost_schedule", "neighbor_states", "tighter_recost", "warm_start_from"]


def recost_schedule(
    schedule: IterationSchedule,
    problem: SearchProblem,
    cluster: ClusterSpec,
    comm: Optional[CommModel] = None,
) -> Optional[IterationSchedule]:
    """Replay ``schedule``'s assignment under ``problem``'s (new) costs.

    Keeps each task's variant label and processor set; recomputes start
    times (resource availability + predecessor finish + communication
    delay) and durations from the new problem.  Returns ``None`` whenever
    the replay is not legal under the new state — a variant label that no
    longer exists, a width that changed, a processor outside the cluster
    — so callers can fall back to the cold warm start.
    """
    if comm is None:
        comm = CommModel.free(cluster)
    placed = {p.task: p for p in schedule}
    if set(placed) != set(problem.order_names):
        return None
    n_procs = cluster.total_processors
    free = [0.0] * n_procs
    out: list[Placement] = []
    ends: dict[str, Placement] = {}
    for name in problem.order_names:
        old = placed[name]
        var = next(
            (v for v in problem.variants[name] if v.label == old.variant), None
        )
        if var is None or var.workers != len(old.procs):
            return None
        if any(not 0 <= q < n_procs for q in old.procs):
            return None
        primary = old.primary
        dur = var.duration / cluster.node_speeds[cluster.node_of(primary)]
        est = max(free[q] for q in old.procs)
        for pred in problem.preds[name]:
            delay = comm.transfer_time(
                problem.edge_bytes[(pred, name)], ends[pred].primary, primary
            )
            est = max(est, ends[pred].end + delay)
        placement = Placement(name, old.procs, est, dur, variant=old.variant)
        for q in old.procs:
            free[q] = placement.end
        ends[name] = placement
        out.append(placement)
    try:
        return IterationSchedule(out, name="recost")
    except ReproError:
        return None


def neighbor_states(space: StateSpace, state: State) -> list[State]:
    """The states adjacent to ``state`` in the space's enumeration order.

    Constrained dynamism moves between adjacent regimes (the tracker
    gains or loses one person at a time), and state spaces enumerate in
    that order — so index ±1 is the "likely next regime" set the lazy
    table pre-fills and the incremental solver warm-starts from.
    """
    i = space.index(state)
    out: list[State] = []
    if i > 0:
        out.append(space[i - 1])
    if i + 1 < len(space):
        out.append(space[i + 1])
    return out


def tighter_recost(
    request: SolveRequest,
    neighbor: IterationSchedule,
) -> Optional[IterationSchedule]:
    """``neighbor`` re-costed under ``request``'s snapshot, if it bounds tighter.

    ``None`` when the replay is not legal under the request's state, or
    when the request already holds a bound at least as tight.  Both ways a
    neighbor reaches a search use it: :func:`warm_start_from` at once, and
    :func:`~repro.core.parallel.incumbent_of` for a request that carries
    the schedule un-priced (``request.neighbor``), on a cache miss only.
    """
    warm = recost_schedule(
        neighbor, request.problem, request.cluster, request.comm
    )
    if warm is None:
        return None
    if request.incumbent is not None and warm.latency >= request.incumbent:
        return None
    return warm


def warm_start_from(
    request: SolveRequest,
    neighbor: IterationSchedule,
) -> bool:
    """Supply ``request`` with a neighbor's re-costed schedule as its bound.

    The request carries no HEFT schedule — that is computed on a miss, by
    :func:`~repro.core.parallel.incumbent_of`, which keeps the tighter of
    the two: the bound a miss searches under is ``min(HEFT, neighbor)``,
    and for approximate requests the better of the two schedules is the
    fallback, so an ε-prune-everything outcome serves the tighter one.
    A neighbor no better than HEFT therefore never becomes the bound.
    The re-cost runs here, before any cache fetch; a caller that may hit
    the cache sets ``request.neighbor`` instead, and the re-cost happens
    only on a miss.

    Returns True when the re-costed schedule was attached: the replay was
    legal under the new state and beat any bound the request already held.
    """
    warm = tighter_recost(request, neighbor)
    if warm is None:
        return False
    request.incumbent = warm.latency
    request.fallback = warm
    return True
