"""Differential tests: the fault runner on the shared placement body vs. the
generator body it replaced.

``FaultTolerantExecutor.run`` starts every iteration through
:class:`repro.runtime.static_exec.PlacementReplay`, the four-call body the
static executor runs, and expresses a failure as ``lose(frame, cause)`` on
it; the body it had before — a generator ``Process`` per placement racing
``AnyOf`` waits, every STM access behind the bounded-retry helpers — is
kept verbatim in ``fault_generator_oracle.py``.  Both run here over
{chain2, chain3, fork-join 2x2, tracker 2x2} x 8 fault plans x 3 transition
policies under ``CommModel(cluster)`` and must agree on everything a result
reports — times to 1e-9, loss lists, detections, failovers, the span
multiset, GC totals.

Sixteen of the 96 cases are *allowed* to differ, and only in the direction
of the two defects the second body had:

* it re-read STM the frame ledger had already ordered, so a checkpoint
  replay waited out its retry budget on an item its own connection had
  consumed in the first attempt and died ``stm-timeout`` — the frames the
  policy exists to save were lost (``CHECKPOINT_FIXED``);
* it never acquired processors, so after a ``ProcessorLoss`` failover
  spans double-booked one processor; on the shared body they slip
  (``PROCLOSS_FIXED``).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.transition import (
    CheckpointTransition,
    DrainTransition,
    ImmediateTransition,
)
from repro.faults import FaultPlan, FaultRuntime, FaultTolerantExecutor, ProcessorLoss
from repro.graph.builders import chain_graph, fork_join_graph
from repro.sim.cluster import ClusterSpec
from repro.sim.network import CommModel
from repro.state import State

from ..runtime.test_static_diff import with_capacity
from .fault_generator_oracle import GeneratorFaultExecutor

TOL = 1e-9
FRAMES = 25

GRAPHS = {
    "chain2": (lambda: chain_graph([1.0, 1.0]), State(n_models=1), ClusterSpec(2, 1)),
    "chain3": (lambda: chain_graph([1.0, 0.7, 1.3]), State(n_models=1), ClusterSpec(3, 1)),
    "forkjoin": (
        lambda: fork_join_graph(0.5, [1.0, 1.0], 0.5), State(n_models=1), ClusterSpec(2, 2)
    ),
    "tracker": (build_tracker_graph, State(n_models=2), ClusterSpec(2, 2)),
}
PLANS = {
    "none": lambda c: FaultPlan([]),
    "crash5.0": lambda c: FaultPlan.crash_at(5.0, node=1),
    "crash5.3": lambda c: FaultPlan.crash_at(5.3, node=1),
    "crash7.7+recover": lambda c: FaultPlan.crash_at(7.7, node=1, recover_at=20.0),
    "procloss": lambda c: FaultPlan(
        [ProcessorLoss(time=4.0, proc=c.total_processors - 1)]
    ),
    **{
        f"poisson{seed}": lambda c, seed=seed: FaultPlan.poisson(
            c, horizon=60, rate=0.08, seed=seed, mean_downtime=8
        )
        for seed in (1, 2, 3)
    },
}
POLICIES = {
    "drain": DrainTransition(setup=0.5),
    "immediate": ImmediateTransition(setup=0.5),
    "checkpoint": CheckpointTransition(setup=0.5),
}
SINGLE_CRASH = ("crash5.0", "crash5.3", "crash7.7+recover")
GRID = [(g, p, pol) for g in GRAPHS for p in PLANS for pol in POLICIES]

# The only cases that may differ from the oracle (see the module notes).
CHECKPOINT_FIXED = {
    (g, p, "checkpoint")
    for g, ps in {
        "chain3": SINGLE_CRASH + ("poisson1", "poisson3"),
        "tracker": SINGLE_CRASH + ("procloss", "poisson1", "poisson3"),
    }.items()
    for p in ps
}
PROCLOSS_FIXED = {(g, "procloss", pol) for g in ("forkjoin", "tracker") for pol in POLICIES}


@lru_cache(maxsize=None)
def setting(graph_name):
    make_graph, state, cluster = GRAPHS[graph_name]
    graph, comm = make_graph(), CommModel(cluster)
    table = FaultTolerantExecutor(
        graph, state, cluster, FaultRuntime(plan=FaultPlan([])), comm=comm
    ).table
    return graph, state, cluster, comm, table


@lru_cache(maxsize=None)
def run_both(graph_name, plan_name, policy_name):
    graph, state, cluster, comm, table = setting(graph_name)
    faults = FaultRuntime(
        plan=PLANS[plan_name](cluster), policy=POLICIES[policy_name], table=table
    )
    return tuple(
        executor(graph, state, cluster, faults, comm=comm).run(FRAMES)
        for executor in (FaultTolerantExecutor, GeneratorFaultExecutor)
    )


def overlaps(result, preempted=True):
    """Pairs of consecutive spans on one processor that overlap."""
    by_proc = {}
    for s in result.trace.spans:
        if preempted or not s.preempted:
            by_proc.setdefault(s.proc, []).append((s.start, s.end, s.task, s.timestamp))
    return [
        (proc, a, b)
        for proc, spans in by_proc.items()
        for a, b in zip(sorted(spans), sorted(spans)[1:])
        if b[0] < a[1] - TOL
    ]


def assert_same_times(new, old, tol=TOL):
    assert sorted(new.completion_times) == sorted(old.completion_times)
    assert sorted(new.digitize_times) == sorted(old.digitize_times)
    for mine, theirs in (
        (new.completion_times, old.completion_times),
        (new.digitize_times, old.digitize_times),
    ):
        for ts, t in theirs.items():
            assert mine[ts] == pytest.approx(t, abs=tol), ts
    assert new.horizon == pytest.approx(old.horizon, abs=tol)


def assert_same_losses(new, old, keys):
    for key in keys:
        assert new.meta[key] == old.meta[key], key


LOSSES = ("frames_lost_crash", "frames_lost_transition", "frames_replayed")
DECISIONS = ("detections", "failovers")


def assert_same_run(new, old):
    assert_same_times(new, old)
    assert_same_losses(new, old, LOSSES + DECISIONS)
    key = lambda s: (s.proc, s.task, s.timestamp, s.preempted)
    assert Counter(map(key, new.trace.spans)) == Counter(map(key, old.trace.spans))
    full = lambda s: key(s) + (s.start, s.end)
    for a, b in zip(sorted(new.trace.spans, key=full), sorted(old.trace.spans, key=full)):
        assert key(a) == key(b)
        assert a.start == pytest.approx(b.start, abs=TOL)
        assert a.end == pytest.approx(b.end, abs=TOL)
    assert new.gc_collected == old.gc_collected
    assert new.live_item_high_water == old.live_item_high_water
    # put / consume / GC accounting is the oracle's; only its per-placement
    # ``get`` item events are gone (precedence is the frame ledger's).
    ops = lambda res: Counter(
        (e.channel, e.kind, e.task) for e in res.trace.items if e.kind != "get"
    )
    assert ops(new) == ops(old)
    assert new.meta["slips"] == 0


class TestSameRunAsTheGeneratorBody:
    @pytest.mark.parametrize(
        "case",
        [c for c in GRID if c not in CHECKPOINT_FIXED | PROCLOSS_FIXED],
        ids="-".join,
    )
    def test_equal_to_the_oracle(self, case):
        assert_same_run(*run_both(*case))

    def test_the_grid_has_sixteen_exceptions(self):
        assert len(GRID) == 96
        assert len(CHECKPOINT_FIXED | PROCLOSS_FIXED) == 16

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_FIXED), ids="-".join)
    def test_checkpoint_replays_are_no_longer_lost(self, case):
        """The oracle loses frames it replayed (their second attempt times
        out on a consumed item); the change loses strictly fewer, and the
        controller saw the same failures on both sides."""
        new, old = run_both(*case)
        assert_same_losses(new, old, ("frames_lost_transition",) + DECISIONS)
        lost, oracle_lost = (set(r.meta["frames_lost_crash"]) for r in (new, old))
        assert set(old.meta["frames_replayed"]) & oracle_lost
        assert len(lost) < len(oracle_lost)
        assert len(new.completion_times) > len(old.completion_times)
        if case[1] in SINGLE_CRASH + ("procloss",):
            # One failure: nothing can kill a replay, so every replayed
            # frame completes and no new loss appears.  (Under the Poisson
            # plans a later crash may legitimately catch a replay.)
            assert lost < oracle_lost
            assert new.meta["frames_replayed"] == old.meta["frames_replayed"]
            assert set(new.meta["frames_replayed"]) <= set(new.completion_times)

    @pytest.mark.parametrize("case", sorted(PROCLOSS_FIXED), ids="-".join)
    def test_double_booking_becomes_slips(self, case):
        """After the failover the oracle runs two placements at once on one
        processor; on the shared body the second waits (a slip), which
        shifts what follows by no more than the largest slip."""
        new, old = run_both(*case)
        assert overlaps(old, preempted=False) and not overlaps(new)
        assert new.meta["slips"] > 0
        assert_same_losses(new, old, DECISIONS + ("frames_lost_transition",))
        if case not in CHECKPOINT_FIXED:
            assert_same_losses(new, old, LOSSES)
            assert_same_times(new, old, tol=new.meta["max_slip"] + TOL)
            assert new.gc_collected == old.gc_collected

    @pytest.mark.parametrize("case", GRID, ids="-".join)
    def test_no_two_spans_overlap_on_one_processor(self, case):
        new, _old = run_both(*case)
        assert overlaps(new) == []


class TestCheckpointReplayCompletes:
    """Regression: a frame the checkpoint policy replays is not also lost."""

    @pytest.mark.parametrize("plan", SINGLE_CRASH)
    @pytest.mark.parametrize("graph", ["chain3", "forkjoin", "tracker"])
    def test_replayed_frames_complete(self, graph, plan):
        new, _old = run_both(graph, plan, "checkpoint")
        replayed = set(new.meta["frames_replayed"])
        assert replayed
        assert replayed & set(new.meta["frames_lost_crash"]) == set()
        assert replayed <= set(new.completion_times)

    def test_the_tracker_keeps_the_frames_it_replays(self):
        new, old = run_both("tracker", "crash7.7+recover", "checkpoint")
        assert old.meta["frames_lost_crash"] == [13, 14, 21]
        assert new.meta["frames_lost_crash"] == [13]
        assert new.meta["frames_replayed"] == [14, 21]

    def test_unit_chain_replay_is_not_a_crash_loss(self):
        result = FaultTolerantExecutor(
            chain_graph([1.0, 1.0, 1.0]), State(n_models=1), ClusterSpec(3, 1),
            FaultRuntime(
                plan=FaultPlan.crash_at(5.0, node=1),
                policy=CheckpointTransition(setup=0.5),
            ),
        ).run(20)
        assert result.meta["frames_replayed"] == [3, 5]
        assert result.meta["frames_lost_crash"] == [4]
        assert result.completed_count == 19


class TestBoundedChannelsStillEnd:
    """A full channel whose consumer's frame is gone is waited on for
    ``PUT_WAIT`` and then costs the frame (``stm-timeout``, counted with the
    crash losses) — a typed loss inside the hard deadline, never a hang."""

    def run_both(self, capacity, policy):
        faults = FaultRuntime(
            plan=FaultPlan.crash_at(5.0, node=1, recover_at=15.0), policy=policy
        )
        return tuple(
            executor(
                with_capacity(chain_graph([1.0, 1.0, 1.0]), capacity),
                State(n_models=1), ClusterSpec(3, 1), faults,
            ).run(FRAMES)
            for executor in (FaultTolerantExecutor, GeneratorFaultExecutor)
        )

    def test_capacity_one_loses_every_later_frame_on_both_sides(self):
        """A lost frame's items are never retired, so behind one a
        capacity-1 channel stays full: 21 of 25 frames go, here as in the
        oracle (ROADMAP item 5 — not fixed by moving bodies)."""
        new, old = self.run_both(1, DrainTransition(setup=0.5))
        assert_same_run(new, old)
        assert new.meta["frames_lost_crash"] == list(range(4, 25))
        assert new.horizon == pytest.approx(32.6)

    def test_capacity_two_checkpoint_completes_what_it_replays(self):
        new, old = self.run_both(2, CheckpointTransition(setup=0.5))
        assert (new.completed_count, old.completed_count) == (24, 3)
        assert new.meta["frames_lost_crash"] == [4]
        assert set(new.meta["frames_replayed"]) <= set(new.completion_times)
