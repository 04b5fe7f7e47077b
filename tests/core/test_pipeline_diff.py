"""Differential tests: the rotation-indexed II search vs. the algorithm it replaced.

``core.pipeline`` and ``PipelinedSchedule.validate_conflict_free`` claim
to return *bitwise* the periods, shifts, raise/no-raise decisions and
messages of the code they replaced.  That code is kept here, verbatim, as
the oracle — per-``k`` scan of all span pairs with a modulo test, a
``by_proc`` regrouping per feasibility test, ``instantiate()``-d
``Placement`` objects per checked iteration — and compared on
Hypothesis-built iterations (data-parallel placements, idle gaps, 1..8
processors, every shift), on hand-built colliding schedules, on every
member of S of the tracker's table, and on Figure 6 step 3 end to end
(which also covers the incumbent screen of ``solution_from_enumeration``).
The relaxed collision screen inside ``PipelineSearch.beats`` is held to the
oracle by a soundness property: what it rules out, the oracle finds
infeasible.
The tracker's serialized tables are pinned by digest besides, so that a
later change that moves a served schedule by one ulp fails here.

The one intended difference, zero-length placements, is pinned in
``test_pipeline.py`` and kept out of the generated iterations.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.enumerate import EnumerationResult
from repro.core.optimal import OptimalScheduler, solution_from_enumeration
from repro.core.pipeline import PipelineSearch, best_pipelined, min_initiation_interval
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.core.serialize import table_to_json
from repro.core.table import ScheduleTable
from repro.errors import InvalidSchedule, ScheduleError
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State

_EPS = 1e-9


# -- the oracle: the replaced code, verbatim ------------------------------------


def _feasible(
    spans: list[tuple[int, float, float]],
    P: int,
    shift: int,
    period: float,
    latency: float,
) -> bool:
    """Check that iteration 0 never collides with any later iteration."""
    if period <= 0:
        return False
    K = int(latency / period) + P + 1
    by_proc: dict[int, list[tuple[float, float]]] = {}
    for proc, s, e in spans:
        by_proc.setdefault(proc, []).append((s, e))
    for k in range(1, K + 1):
        off = k * period
        if off >= latency - _EPS:
            break
        for proc, s, e in spans:
            target = (proc + k * shift) % P
            for (s0, e0) in by_proc.get(target, ()):
                if s + off < e0 - _EPS and s0 < e + off - _EPS:
                    return False
    return True


def oracle_min_initiation_interval(
    iteration: IterationSchedule,
    n_procs: int,
    shift: int,
) -> float:
    spans = [
        (proc, p.start, p.end)
        for p in iteration.placements
        for proc in p.procs
        if p.duration > 0
    ]
    latency = iteration.latency
    if not spans or latency <= 0:
        raise InvalidSchedule("cannot pipeline an empty or zero-length iteration")
    if not 0 <= shift < n_procs:
        raise InvalidSchedule(f"shift {shift} out of range 0..{n_procs - 1}")

    area = sum(e - s for _, s, e in spans)
    lb = area / n_procs
    if shift == 0:
        per_proc: dict[int, float] = {}
        for proc, s, e in spans:
            per_proc[proc] = per_proc.get(proc, 0.0) + (e - s)
        lb = max(lb, max(per_proc.values()))

    candidates: set[float] = {lb, latency}
    Kmax = max(1, min(int(math.ceil(latency / max(lb, _EPS))) + n_procs, 10_000))
    for k in range(1, Kmax + 1):
        for proc_a, sa, ea in spans:
            for proc_b, sb, eb in spans:
                if (proc_b + k * shift) % n_procs != proc_a:
                    continue
                for crit in ((ea - sb) / k, (sa - eb) / k):
                    if lb - _EPS <= crit <= latency + _EPS:
                        candidates.add(max(crit, lb))
    for cand in sorted(candidates):
        if cand <= 0:
            continue
        if _feasible(spans, n_procs, shift, cand, latency):
            return cand
    return latency  # pragma: no cover - latency is always feasible


def oracle_validate_conflict_free(
    self: PipelinedSchedule, iterations: Optional[int] = None
) -> None:
    if not self.iteration.placements:
        return
    K = iterations
    if K is None:
        K = int(self.latency / self.period) + self.n_procs + 1
    base = self.instantiate(0)
    for k in range(1, K + 1):
        other = self.instantiate(k)
        for a in base:
            for b in other:
                if set(a.procs) & set(b.procs):
                    if a.start < b.end - _EPS and b.start < a.end - _EPS:
                        raise InvalidSchedule(
                            f"iterations 0 and {k} collide: {a.task!r} "
                            f"[{a.start:g},{a.end:g}) vs {b.task!r} "
                            f"[{b.start:g},{b.end:g}) on procs "
                            f"{sorted(set(a.procs) & set(b.procs))}"
                        )


def oracle_best_pipelined(
    iteration: IterationSchedule,
    cluster: ClusterSpec,
    shifts: Optional[list[int]] = None,
    name: str = "pipelined",
) -> PipelinedSchedule:
    P = cluster.total_processors
    trial_shifts = shifts if shifts is not None else [*range(1, P), 0]
    best: Optional[tuple[float, int]] = None
    for s in trial_shifts:
        ii = oracle_min_initiation_interval(iteration, P, s)
        if best is None or ii < best[0] - _EPS:
            best = (ii, s)
    if best is None:
        raise ScheduleError("no shifts to try")
    period, shift = best
    sched = PipelinedSchedule(iteration, period=period, shift=shift, n_procs=P, name=name)
    oracle_validate_conflict_free(sched)
    return sched


def oracle_step3(result, cluster):
    """The replaced ``solution_from_enumeration`` loop: (iteration, M)."""
    best = best_iter = None
    for candidate in result.schedules:
        piped = oracle_best_pipelined(candidate, cluster, name=f"M[{candidate.name}]")
        if best is None or piped.period < best.period - _EPS:
            best, best_iter = piped, candidate
    return best_iter, best


# -- comparisons ----------------------------------------------------------------


def _outcome(check, *args):
    """``None`` or the message ``check`` raised."""
    try:
        check(*args)
    except InvalidSchedule as exc:
        return str(exc)
    return None


def assert_same_search(iteration: IterationSchedule, n_procs: int) -> None:
    """Every shift's II, and the chosen (period, shift), bit for bit."""
    for shift in range(n_procs):
        new = min_initiation_interval(iteration, n_procs, shift)
        old = oracle_min_initiation_interval(iteration, n_procs, shift)
        assert new.hex() == old.hex(), (shift, new, old)
    cluster = SINGLE_NODE_SMP(n_procs)
    new_m = best_pipelined(iteration, cluster)
    old_m = oracle_best_pipelined(iteration, cluster)
    assert (new_m.period.hex(), new_m.shift) == (old_m.period.hex(), old_m.shift)


def assert_same_step3(result, cluster) -> None:
    """The chosen member of S (by identity), its period, shift and name."""
    solution = solution_from_enumeration(result, cluster)
    old_iter, old_m = oracle_step3(result, cluster)
    assert solution.iteration is old_iter
    assert (solution.pipelined.period.hex(), solution.pipelined.shift) == (
        old_m.period.hex(), old_m.shift)
    assert solution.pipelined.name == old_m.name


@st.composite
def iterations(draw, n_procs=None):
    """A legal iteration on ``P`` processors: list-scheduled placements of
    1..P distinct processors each, with optional idle gaps before them."""
    if n_procs is None:
        n_procs = draw(st.integers(1, 8))
    free = [0.0] * n_procs
    placements = []
    for i in range(draw(st.integers(1, 5))):
        procs = tuple(draw(st.lists(st.integers(0, n_procs - 1), min_size=1,
                                    max_size=n_procs, unique=True)))
        gap = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0 / 3.0]))
        start = max(free[q] for q in procs) + gap
        duration = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                                  st.floats(0.01, 3.0)))
        placements.append(Placement(f"t{i}", procs, start, duration,
                                    variant=f"dp{len(procs)}"))
        for q in procs:
            free[q] = start + duration
    return IterationSchedule(placements), n_procs


@settings(max_examples=200, deadline=None)
@given(iterations())
def test_generated_iterations_search_identically(case):
    iteration, n_procs = case
    assert_same_search(iteration, n_procs)


@settings(max_examples=200, deadline=None)
@given(case=iterations(), data=st.data())
def test_generated_schedules_validate_identically(case, data):
    """Any (period, shift), colliding or not: same verdict, same message."""
    iteration, n_procs = case
    shift = data.draw(st.integers(0, n_procs - 1), label="shift")
    period = data.draw(st.one_of(
        st.floats(0.01, 1.0).map(lambda f: f * iteration.latency),
        st.sampled_from([min_initiation_interval(iteration, n_procs, shift)]),
    ), label="period")
    window = data.draw(st.sampled_from([None, 1, 3]), label="iterations")
    sched = PipelinedSchedule(iteration, period=period, shift=shift, n_procs=n_procs)
    assert _outcome(sched.validate_conflict_free, window) == _outcome(
        oracle_validate_conflict_free, sched, window)


def _scaled(iteration: IterationSchedule, factor: float) -> IterationSchedule:
    """``iteration`` with every start and duration multiplied by ``factor``."""
    return IterationSchedule([
        Placement(p.task, p.procs, p.start * factor, p.duration * factor,
                  variant=p.variant)
        for p in iteration.placements
    ])


@st.composite
def candidate_sets(draw):
    """A list S on 1..8 processors: as drawn, sorted so that the winner
    comes late (every member replaces the incumbent), or padded with copies
    scaled so their periods lie within a few EPS of each other."""
    n_procs = draw(st.integers(1, 8), label="P")
    members = draw(st.lists(iterations(n_procs=n_procs).map(lambda c: c[0]),
                            min_size=2, max_size=6), label="S")
    order = draw(st.sampled_from(["drawn", "late", "near-ties"]), label="order")
    cluster = SINGLE_NODE_SMP(n_procs)
    if order == "late":
        members.sort(key=lambda m: -oracle_best_pipelined(m, cluster).period)
    elif order == "near-ties":
        base = members[0]
        period = oracle_best_pipelined(base, cluster).period
        for gap in draw(st.lists(st.sampled_from(
                [-2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 1.5, 2.0]),
                min_size=1, max_size=4), label="gaps in EPS"):
            members.append(_scaled(base, 1.0 + gap * _EPS / period))
    members += members[:2]  # exact ties: the first must keep winning
    return members, cluster


@settings(max_examples=80, deadline=None)
@given(candidate_sets())
def test_generated_sets_pick_identically(case):
    """Step 3 over an arbitrary candidate list (mixed areas and latencies,
    repeats, a moving incumbent, periods inside EPS of each other): the
    screens never change which member wins or how."""
    members, cluster = case
    result = EnumerationResult(latency=members[0].latency, schedules=members,
                               optimal_count=len(members), explored=0,
                               state=State(n_models=1))
    assert_same_step3(result, cluster)


@settings(max_examples=150, deadline=None)
@given(case=iterations(), scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
def test_collision_screen_is_sound(case, scale):
    """The relaxed collision screen against the oracle: no shift's floor
    passes that shift's exact minimum, and whenever the screen rules a
    threshold out (every shift's floor reaches it) — thresholds at, and an
    ulp, EPS and 2 EPS either side of, each shift's minimum — the oracle
    finds no feasible II below it on any shift."""
    iteration, n_procs = case
    iteration = _scaled(iteration, scale)
    search = PipelineSearch(iteration, n_procs)
    minima = [oracle_min_initiation_interval(iteration, n_procs, shift)
              for shift in range(n_procs)]
    for shift, exact in enumerate(minima):
        assert search.screen_floor(shift) <= exact, (shift, exact)
    for exact in minima:
        for threshold in (exact, math.nextafter(exact, math.inf),
                          math.nextafter(exact, -math.inf), exact + _EPS,
                          exact - _EPS, exact + 2 * _EPS, exact - 2 * _EPS):
            floors = [search.screen_floor(shift, threshold)
                      for shift in range(n_procs)]
            for floor, shift_min in zip(floors, minima):
                if floor >= threshold:
                    assert shift_min >= threshold, (threshold, floor, shift_min)
            if all(floor >= threshold for floor in floors):
                assert min(minima) >= threshold
                assert not search.beats(threshold)


HAND_BUILT = [
    # (placements, n_procs, period, shift, collides)
    ([Placement("t", (0,), 0.0, 2.0)], 1, 1.0, 0, True),
    ([Placement("a", (0, 1), 0.0, 4.0), Placement("b", (2,), 1.0, 1.0)], 4, 1.0, 1, True),
    ([Placement("a", (0,), 0.0, 1.0), Placement("b", (0,), 3.0, 1.0)], 1, 3.0, 0, True),
    ([Placement("a", (0, 2), 0.5, 1.5), Placement("b", (1, 3), 0.0, 2.5)], 4, 0.75, 3, True),
    ([Placement("a", (1,), -0.0, 2.0), Placement("b", (0,), 2.0, 2.0)], 2, 1.5, 1, True),
    # overlaps inside the tolerance, on either comparison: legal
    ([Placement("a", (0,), 3.0, 1.0), Placement("b", (0,), 0.0, 1.0 + 5e-10)], 1, 2.0, 0, False),
    ([Placement("a", (0,), 0.0, 1.0 + 5e-10)], 1, 1.0, 0, False),
    # ... and just outside it
    ([Placement("a", (0,), 3.0, 1.0), Placement("b", (0,), 0.0, 1.0 + 3e-9)], 1, 2.0, 0, True),
    ([Placement("a", (0,), 0.0, 1.0 + 3e-9)], 1, 1.0, 0, True),
]


@pytest.mark.parametrize("placements,n_procs,period,shift,collides", HAND_BUILT)
def test_hand_built_schedules_report_identically(placements, n_procs, period, shift,
                                                 collides):
    iteration = IterationSchedule(placements)
    sched = PipelinedSchedule(iteration, period=period, shift=shift, n_procs=n_procs)
    message = _outcome(oracle_validate_conflict_free, sched)
    assert (message is not None) == collides
    assert _outcome(sched.validate_conflict_free) == message
    assert_same_search(iteration, n_procs)


@pytest.mark.parametrize(
    "cluster", [ClusterSpec(2, 4), SINGLE_NODE_SMP(4)], ids=["2x4", "smp4"]
)
def test_tracker_table_step3_identical(cluster):
    """Every member of S of every tracker state, then step 3 end to end."""
    graph = build_tracker_graph()
    scheduler = OptimalScheduler(cluster)
    for state in TRACKER_STATES:
        result = scheduler.enumerate(graph, state)
        for member in result.schedules:
            assert_same_search(member, cluster.total_processors)
        assert_same_step3(result, cluster)


@pytest.mark.parametrize("seed", range(6))
def test_random_dag_step3_identical(seed):
    """Mixed-area sets S (data-parallel variants), where the screen bites."""
    cluster = ClusterSpec(2, 4)
    graph = random_dag(5, 100 + seed, dp_prob=0.3)
    result = OptimalScheduler(cluster).enumerate(graph, State(n_models=4))
    assert_same_step3(result, cluster)


# Taken on the commit before the rotation-indexed search (PR 13); the "list"
# row on the commit before HEFT read the cost snapshot (PR 16) — it pins the
# list scheduler's placements bitwise.  The digests are over the payload's
# ``indent=2`` spelling, the text a table file had when they were taken.
GOLDEN_TRACKER_TABLES = {
    "2x4": (ClusterSpec(2, 4), None,
            "0b3d20c7ea8b920c25d7aa1282de43e0dccb85483dd3386e204cfc7942f6389f"),
    "smp4": (SINGLE_NODE_SMP(4), None,
             "56616a72668230e09fa6ff05a6a374102be24bc6bbe97a818cf49bba7d85abc5"),
    "2x4-list": (ClusterSpec(2, 4), "list",
                 "6f398c02d5f7d8bc795f55c7987a4198913c88add10a8159b388028adbc8b5c3"),
}


@pytest.mark.parametrize("name", GOLDEN_TRACKER_TABLES)
def test_tracker_table_golden_digest(name):
    cluster, policy, digest = GOLDEN_TRACKER_TABLES[name]
    table = ScheduleTable.build(
        build_tracker_graph(), TRACKER_STATES, OptimalScheduler(cluster),
        parallel=1, policy=policy,
    )
    text = json.dumps(json.loads(table_to_json(table)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
