"""Differential tests: the fault runner on the shared placement body vs. the
generator body it replaced.

``FaultTolerantExecutor.run`` starts every iteration through
:class:`repro.runtime.static_exec.PlacementReplay`, the four-call body the
static executor runs, and expresses a failure as ``lose(frame, cause)`` on
it.  The body it had before — a generator ``Process`` per placement racing
``AnyOf`` waits, every STM access behind bounded-retry helpers — was run
over {chain2, chain3, fork-join 2x2, tracker 2x2} x 8 fault plans x 3
transition policies under ``CommModel(cluster)``, and on the two
bounded-channel runs at the end, and its results frozen in
``golden_faults.json`` (every float as ``float.hex()``; see
``tests/golden.py``) before it was deleted.  The runner must agree with
them on everything a result reports — times to 1e-9, loss lists,
detections, failovers, the span multiset, GC totals.

Sixteen of the 96 grid cases are *allowed* to differ, and only in the
direction of the two defects the generator body had:

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
from pathlib import Path

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

from .. import golden
from ..runtime.test_static_diff import with_capacity

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
#: The two bounded-channel runs: (channel capacity, transition policy).
BOUNDED = {
    "bounded/1/drain": (1, DrainTransition(setup=0.5)),
    "bounded/2/checkpoint": (2, CheckpointTransition(setup=0.5)),
}

# The only cases that may differ from the frozen body (see the module notes).
CHECKPOINT_FIXED = {
    (g, p, "checkpoint")
    for g, ps in {
        "chain3": SINGLE_CRASH + ("poisson1", "poisson3"),
        "tracker": SINGLE_CRASH + ("procloss", "poisson1", "poisson3"),
    }.items()
    for p in ps
}
PROCLOSS_FIXED = {(g, "procloss", pol) for g in ("forkjoin", "tracker") for pol in POLICIES}

LOSSES = ("frames_lost_crash", "frames_lost_transition", "frames_replayed")
DECISIONS = ("detections", "failovers")
META = LOSSES + DECISIONS
GOLDEN = golden.load(Path(__file__).with_name("golden_faults.json"))


@lru_cache(maxsize=None)
def setting(graph_name):
    make_graph, state, cluster = GRAPHS[graph_name]
    graph, comm = make_graph(), CommModel(cluster)
    table = FaultTolerantExecutor(
        graph, state, cluster, FaultRuntime(plan=FaultPlan([])), comm=comm
    ).table
    return graph, state, cluster, comm, table


def grid_inputs(graph_name, plan_name, policy_name):
    """``(graph, state, cluster, faults, comm)`` of one grid case."""
    graph, state, cluster, comm, table = setting(graph_name)
    faults = FaultRuntime(
        plan=PLANS[plan_name](cluster), policy=POLICIES[policy_name], table=table
    )
    return graph, state, cluster, faults, comm


def bounded_inputs(key):
    capacity, policy = BOUNDED[key]
    faults = FaultRuntime(plan=FaultPlan.crash_at(5.0, node=1, recover_at=15.0), policy=policy)
    graph = with_capacity(chain_graph([1.0, 1.0, 1.0]), capacity)
    return graph, State(n_models=1), ClusterSpec(3, 1), faults, None


@lru_cache(maxsize=None)
def run_case(graph_name, plan_name, policy_name):
    """The runner's result on one grid case and the frozen generator run."""
    graph, state, cluster, faults, comm = grid_inputs(graph_name, plan_name, policy_name)
    new = FaultTolerantExecutor(graph, state, cluster, faults, comm=comm).run(FRAMES)
    return new, GOLDEN["-".join((graph_name, plan_name, policy_name))]


def spans_of(result):
    return sorted(
        (s.proc, s.task, s.timestamp, s.preempted, s.start, s.end)
        for s in result.trace.spans
    )


def frozen_spans(old):
    return [
        (p, task, ts, pre, float.fromhex(a), float.fromhex(b))
        for p, task, ts, pre, a, b in old["spans"]
    ]


def overlaps(spans, preempted=True):
    """Pairs of consecutive spans on one processor that overlap."""
    by_proc = {}
    for proc, task, ts, pre, start, end in spans:
        if preempted or not pre:
            by_proc.setdefault(proc, []).append((start, end, task, ts))
    return [
        (proc, a, b)
        for proc, rows in by_proc.items()
        for a, b in zip(sorted(rows), sorted(rows)[1:])
        if b[0] < a[1] - TOL
    ]


def completed_count(old):
    return len(old["completion_times"])


def assert_same_times(new, old, tol=TOL):
    for mine, frozen in (
        (new.completion_times, golden.times(old["completion_times"])),
        (new.digitize_times, golden.times(old["digitize_times"])),
    ):
        assert sorted(mine) == sorted(frozen)
        for ts, t in frozen.items():
            assert mine[ts] == pytest.approx(t, abs=tol), ts
    assert new.horizon == pytest.approx(float.fromhex(old["horizon"]), abs=tol)


def assert_same_losses(new, old, keys):
    for key in keys:
        assert golden.encode(new.meta[key]) == old["meta"][key], key


def assert_same_run(new, old):
    assert_same_times(new, old)
    assert_same_losses(new, old, LOSSES + DECISIONS)
    key = lambda s: s[:4]
    mine, frozen = spans_of(new), frozen_spans(old)
    assert Counter(map(key, mine)) == Counter(map(key, frozen))
    for a, b in zip(mine, frozen):
        assert key(a) == key(b)
        assert a[4] == pytest.approx(b[4], abs=TOL)
        assert a[5] == pytest.approx(b[5], abs=TOL)
    assert new.gc_collected == old["gc_collected"]
    assert new.live_item_high_water == old["live_item_high_water"]
    # put / consume / GC accounting is the frozen body's; only its
    # per-placement ``get`` item events are gone (precedence is the frame
    # ledger's).
    ops = Counter(
        (e.channel, e.kind, e.task) for e in new.trace.items if e.kind != "get"
    )
    assert ops == Counter(
        {(ch, kind, task): n for ch, kind, task, n in old["ops"] if kind != "get"}
    )
    assert new.meta["slips"] == 0


def test_the_fixture_has_one_entry_per_grid_case():
    assert sorted(GOLDEN) == sorted(["-".join(case) for case in GRID] + list(BOUNDED))


class TestSameRunAsTheGeneratorBody:
    @pytest.mark.parametrize(
        "case",
        [c for c in GRID if c not in CHECKPOINT_FIXED | PROCLOSS_FIXED],
        ids="-".join,
    )
    def test_equal_to_the_oracle(self, case):
        assert_same_run(*run_case(*case))

    def test_the_grid_has_sixteen_exceptions(self):
        assert len(GRID) == 96
        assert len(CHECKPOINT_FIXED | PROCLOSS_FIXED) == 16

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_FIXED), ids="-".join)
    def test_checkpoint_replays_are_no_longer_lost(self, case):
        """The frozen body loses frames it replayed (their second attempt
        times out on a consumed item); the runner loses strictly fewer, and
        the controller saw the same failures on both sides."""
        new, old = run_case(*case)
        assert_same_losses(new, old, ("frames_lost_transition",) + DECISIONS)
        lost = set(new.meta["frames_lost_crash"])
        oracle_lost = set(old["meta"]["frames_lost_crash"])
        assert set(old["meta"]["frames_replayed"]) & oracle_lost
        assert len(lost) < len(oracle_lost)
        assert len(new.completion_times) > completed_count(old)
        if case[1] in SINGLE_CRASH + ("procloss",):
            # One failure: nothing can kill a replay, so every replayed
            # frame completes and no new loss appears.  (Under the Poisson
            # plans a later crash may legitimately catch a replay.)
            assert lost < oracle_lost
            assert new.meta["frames_replayed"] == old["meta"]["frames_replayed"]
            assert set(new.meta["frames_replayed"]) <= set(new.completion_times)

    @pytest.mark.parametrize("case", sorted(PROCLOSS_FIXED), ids="-".join)
    def test_double_booking_becomes_slips(self, case):
        """After the failover the frozen body ran two placements at once on
        one processor; on the shared body the second waits (a slip), which
        shifts what follows by no more than the largest slip."""
        new, old = run_case(*case)
        assert overlaps(frozen_spans(old), preempted=False)
        assert not overlaps(spans_of(new))
        assert new.meta["slips"] > 0
        assert_same_losses(new, old, DECISIONS + ("frames_lost_transition",))
        if case not in CHECKPOINT_FIXED:
            assert_same_losses(new, old, LOSSES)
            assert_same_times(new, old, tol=new.meta["max_slip"] + TOL)
            assert new.gc_collected == old["gc_collected"]

    @pytest.mark.parametrize("case", GRID, ids="-".join)
    def test_no_two_spans_overlap_on_one_processor(self, case):
        new, _old = run_case(*case)
        assert overlaps(spans_of(new)) == []


class TestCheckpointReplayCompletes:
    """Regression: a frame the checkpoint policy replays is not also lost."""

    @pytest.mark.parametrize("plan", SINGLE_CRASH)
    @pytest.mark.parametrize("graph", ["chain3", "forkjoin", "tracker"])
    def test_replayed_frames_complete(self, graph, plan):
        new, _old = run_case(graph, plan, "checkpoint")
        replayed = set(new.meta["frames_replayed"])
        assert replayed
        assert replayed & set(new.meta["frames_lost_crash"]) == set()
        assert replayed <= set(new.completion_times)

    def test_the_tracker_keeps_the_frames_it_replays(self):
        new, old = run_case("tracker", "crash7.7+recover", "checkpoint")
        assert old["meta"]["frames_lost_crash"] == [13, 14, 21]
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

    def run_case(self, key):
        graph, state, cluster, faults, _comm = bounded_inputs(key)
        return FaultTolerantExecutor(graph, state, cluster, faults).run(FRAMES), GOLDEN[key]

    def test_capacity_one_loses_every_later_frame_on_both_sides(self):
        """A lost frame's items are never retired, so behind one a
        capacity-1 channel stays full: 21 of 25 frames go, here as in the
        frozen body (ROADMAP item 1 — not fixed by moving bodies)."""
        new, old = self.run_case("bounded/1/drain")
        assert_same_run(new, old)
        assert new.meta["frames_lost_crash"] == list(range(4, 25))
        assert new.horizon == pytest.approx(32.6)

    def test_capacity_two_checkpoint_completes_what_it_replays(self):
        new, old = self.run_case("bounded/2/checkpoint")
        assert (new.completed_count, completed_count(old)) == (24, 3)
        assert new.meta["frames_lost_crash"] == [4]
        assert set(new.meta["frames_replayed"]) <= set(new.completion_times)
