"""The executed regime-switched row against the analytic oracle.

``run_regime`` executes its regime-switched row — one epoch-driver world,
the kiosk trace as observation events on its heap — where it used to
multiply a table out.  ``regime_analytic_oracle.py`` is that arithmetic,
verbatim.  Where the model is exact the run must agree with it to 1e-9
(every frame's completion, the drain stall, the switch count); where it is
not, the disagreement is pinned, not asserted away:

* the oracle clips a stall to the interval it is charged in, the run
  carries it over — the intervals shorter than their stall are ``SHORT``;
* an epoch launches ``ceil`` of what the oracle counts as a fraction;
* the run's mean latency is over frames, the oracle's over time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from repro.core.transition import DrainTransition, ImmediateTransition
from repro.experiments.regime import frame_latencies, run_regime

from . import regime_analytic_oracle as oracle

TOL = 1e-9
DRAIN = DrainTransition(setup=0.25)
IMMEDIATE = ImmediateTransition(setup=0.25)
#: Trace intervals shorter than the stall charged at their start, by index
#: (interval 16: 0.59 s of three people at 371.8 s, inside both horizons).
SHORT = [16]


@lru_cache(maxsize=None)
def table():
    from repro.apps.tracker.graph import build_tracker_graph
    from repro.core.optimal import OptimalScheduler
    from repro.core.table import ScheduleTable
    from repro.sim.cluster import SINGLE_NODE_SMP
    from repro.state import StateSpace

    return ScheduleTable.build(
        build_tracker_graph(), StateSpace.range("n_models", 1, 5),
        OptimalScheduler(SINGLE_NODE_SMP(4)),
    )


@lru_cache(maxsize=None)
def executed(horizon, policy=DRAIN):
    return run_regime(horizon=horizon, policy=policy)


def switches(result, policy):
    """``(interval index, switch time, stall, resume_at)`` per state change,
    from the trace and the table alone."""
    out, resume = [], 0.0
    for i in range(1, len(result.intervals)):
        old, new = (table().lookup(iv.state()) for iv in result.intervals[i - 1 : i + 1])
        t = result.intervals[i].start
        stall = policy.effect(old, new).stall
        resume = max(resume, t + stall)
        out.append((i, t, stall, resume))
    return out


def epoch_frames(run):
    """``(start, state, [timestamps])`` per epoch of the run."""
    epochs = run.meta["epochs"]
    firsts = [first for _start, first, _state in epochs] + [run.emitted]
    return [
        (start, state, list(range(first, until)))
        for (start, first, state), until in zip(epochs, firsts[1:])
    ]


@pytest.mark.parametrize("horizon", [3600.0, 600.0])
class TestDrainAgainstTheOracle:
    def test_every_frame_completes_on_its_schedule(self, horizon):
        run = executed(horizon).executed
        assert run.meta["slips"] == 0 and run.meta["frames_lost_transition"] == []
        assert run.completed == list(range(run.emitted))
        for start, state, frames in epoch_frames(run):
            sol = table().lookup(state)
            for j, ts in enumerate(frames):
                assert run.completion_times[ts] == pytest.approx(
                    start + j * sol.period + sol.latency, abs=TOL
                ), ts
        latencies = frame_latencies(run, table())
        switched = executed(horizon).outcome("regime-switched")
        assert switched.frames_processed == len(latencies) == run.emitted
        assert switched.worst_latency == pytest.approx(max(latencies.values()))

    def test_epochs_are_the_intervals_the_stall_leaves_room_for(self, horizon):
        result = executed(horizon)
        epochs = epoch_frames(result.executed)
        plan = switches(result, DRAIN)
        ends = [t for _i, t, _s, _r in plan[1:]] + [horizon]
        # An interval gets an epoch unless the next change arrives before
        # its stall is over.
        live = [(i, resume) for (i, _t, _s, resume), end in zip(plan, ends) if resume < end]
        assert [i for i, _t, stall, _r in plan if stall > result.intervals[i].duration] \
            == SHORT
        assert len(epochs) == 1 + len(live) == len(result.intervals) - len(SHORT)
        assert epochs[0][0] == 0.0 and epochs[0][1] == result.intervals[0].state()
        for (start, state, _frames), (i, resume) in zip(epochs[1:], live):
            # the first frame of the incoming schedule is launched at resume_at
            assert start == pytest.approx(resume, abs=TOL)
            assert state == result.intervals[i].state()

    def test_no_outgoing_frame_finishes_after_resume_at(self, horizon):
        run = executed(horizon).executed
        epochs = epoch_frames(run)
        for (_start, _state, frames), (resume, _s, _f) in zip(epochs, epochs[1:]):
            assert max(run.completion_times[ts] for ts in frames) <= resume + TOL

    def test_frame_counts_are_the_oracles_but_for_carried_stalls(self, horizon):
        result = executed(horizon)
        model = oracle.run_regime(horizon=horizon).outcome("regime-switched")
        plan = {i: (stall, resume) for i, _t, stall, resume in switches(result, DRAIN)}
        by_start = {start: len(frames) for start, _s, frames in epoch_frames(result.executed)}
        modelled = 0.0
        for i, iv in enumerate(result.intervals):
            stall, resume = plan.get(i, (0.0, 0.0))
            period = table().lookup(iv.state()).period
            fraction = (iv.duration - min(stall, iv.duration)) / period
            modelled += fraction
            carried = i and resume > iv.start + stall + TOL
            if i in SHORT or carried:
                # the oracle forgets what the run carries over
                assert i - 1 in SHORT or i in SHORT
                continue
            count = next(n for start, n in by_start.items() if abs(start - resume) < TOL)
            assert fraction - 1 <= count <= fraction + 1, i
            assert count == math.ceil((iv.end - resume) / period - TOL), i
        assert modelled == pytest.approx(model.frames_processed)

    def test_switches_and_stall(self, horizon):
        result = executed(horizon)
        switched = result.outcome("regime-switched")
        model = oracle.run_regime(horizon=horizon).outcome("regime-switched")
        assert switched.switches == model.switches == len(result.intervals) - 1
        clipped = sum(
            stall - result.intervals[i].duration
            for i, _t, stall, _r in switches(result, DRAIN)
            if i in SHORT
        )
        assert clipped > 0
        assert switched.total_stall == pytest.approx(model.total_stall + clipped)

    def test_mean_latency_is_over_frames_not_time(self, horizon):
        switched = executed(horizon).outcome("regime-switched")
        model = oracle.run_regime(horizon=horizon).outcome("regime-switched")
        latencies = frame_latencies(executed(horizon).executed, table()).values()
        assert switched.mean_latency == pytest.approx(sum(latencies) / len(latencies))
        assert switched.mean_latency < model.mean_latency
        assert switched.worst_latency == pytest.approx(model.worst_latency)


def test_switching_still_beats_every_fixed_schedule_on_the_executed_row():
    assert executed(3600.0).switching_beats_all_fixed()
    assert not oracle.run_regime(horizon=600.0).switching_beats_all_fixed()
    assert executed(600.0).switching_beats_all_fixed()


@pytest.mark.parametrize("horizon", [3600.0, 600.0])
def test_an_immediate_switch_loses_exactly_the_frames_in_flight(horizon):
    result = executed(horizon, IMMEDIATE)
    run = result.executed
    assert run.meta["slips"] == 0
    changes = [iv.start for iv in result.intervals[1:]]
    in_flight = []
    for (start, state, frames), change in zip(epoch_frames(run), changes):
        sol = table().lookup(state)
        in_flight += [
            ts for j, ts in enumerate(frames)
            if start + j * sol.period + sol.latency > change
        ]
    assert len(run.meta["epochs"]) == len(result.intervals)
    assert run.meta["frames_lost_transition"] == in_flight
    assert len(in_flight) >= len(changes)
    assert run.completed == sorted(set(range(run.emitted)) - set(in_flight))
    switched = result.outcome("regime-switched")
    assert switched.total_stall == pytest.approx(0.25 * len(changes))
    assert switched.frames_processed == run.completed_count
