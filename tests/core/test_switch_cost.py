"""What a regime switch costs — as counts — and that it decides what the
switch it replaced decided.

The timing side lives in ``benchmarks/e2e`` (``sim_online``'s switch
latency: ``switcher.observe`` plus the next ``StaticExecutor``); these are
the counts behind it, which repeat exactly.  An observation resolves through
the detector's per-state value map and builds no ``State``; a transition
policy prices each (old, new) pair once, for every switcher that shares it; a simulated executor builds no
communication model tier.  The differential replays the ``sim_online``
kiosk rounds through the detector and switch kept in
``regime_reference_oracle.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.apps.kiosk import KioskEnvironment
from repro.apps.tracker.graph import build_tracker_graph
from repro.approx.lazy import LazyScheduleTable
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.core.transition import (
    CheckpointTransition,
    DrainTransition,
    ImmediateTransition,
)
from repro.errors import ScheduleLookupError
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State, StateSpace

from .regime_reference_oracle import OracleDetector, OracleSwitcher

E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:  # workloads imports its siblings by bare name
    sys.path.insert(0, str(E2E_DIR))

import workloads  # noqa: E402

CLUSTER = SINGLE_NODE_SMP(4)
POLICIES = {
    "drain": DrainTransition(setup=0.25),
    "immediate": ImmediateTransition(setup=0.25),
    "checkpoint": CheckpointTransition(setup=0.25),
}


@pytest.fixture(scope="module")
def table():
    return ScheduleTable.build(
        build_tracker_graph(), workloads.SIM_STATES, OptimalScheduler(CLUSTER)
    )


def kiosk_round(seed: int, r: int) -> list[tuple[float, int]]:
    """Round ``r`` of a ``sim_online`` child run with ``--seed seed``."""
    env = KioskEnvironment(seed=seed * 10007 + r, **workloads.KIOSK)
    return list(env.observations(
        workloads.ROUND_HORIZON_S, frame_period=workloads.FRAME_PERIOD_S,
        noise_prob=workloads.NOISE_PROB, initial=1 + r,
    ))


def calls(fn) -> int:
    """Python-level calls (the profiler's ``"call"`` events) ``fn()`` makes,
    ``fn`` itself included."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def exactly(fn, runs: int = 10) -> int:
    """``calls(fn)``, the same over ``runs`` runs."""
    counts = {calls(fn) for _ in range(runs)}
    assert len(counts) == 1, counts
    return counts.pop()


def kiosk_switcher(table, policy=None) -> RegimeSwitcher:
    detector = RegimeDetector(
        "n_models", State(n_models=2), confirm=workloads.CONFIRM,
        space=workloads.SIM_STATES,
    )
    return RegimeSwitcher(table, detector, policy or POLICIES["drain"])


class TestCallsPerObservation:
    def test_a_non_switching_observation_makes_at_most_4_calls(self, table):
        """The switcher's ``observe`` and the detector's: 3 calls with the
        caller's frame (10 when every observation built, hashed and clamped
        a ``State``) — whether the value is the current one or one pending
        confirmation."""
        sw = kiosk_switcher(table)
        assert exactly(lambda: sw.observe(1.0, 2)) <= 4
        assert exactly(lambda: (sw.observe(1.0, 3), sw.observe(1.0, 2))) <= 7

    def test_a_switching_observation_makes_at_most_15_calls(self, table):
        """15 calls for a pair's first switch, 11 for a pair priced before
        — the policy's ``price`` is one of them since the prices moved from
        the controller onto the policy (14 and 10 before; 22 each when the
        policy priced every switch and the detector built a ``State`` per
        observation)."""
        sw = kiosk_switcher(table)

        def switch_to(value: int) -> int:
            for _ in range(workloads.CONFIRM - 1):
                assert sw.observe(1.0, value) is None
            return calls(lambda: sw.observe(1.0, value))

        first = {switch_to(3), switch_to(2)}  # 2 -> 3 and back: priced now
        again = {n for _ in range(10) for n in (switch_to(3), switch_to(2))}
        assert len(first) == len(again) == 1
        assert max(again) < max(first) <= 15
        assert sw.switch_count == 22
        effects = {(r.old_solution.state, r.new_solution.state): r.effect
                   for r in sw.records}
        assert len(effects) == 2
        assert all(r.effect is effects[r.old_solution.state, r.new_solution.state]
                   for r in sw.records)

    def test_a_simulated_executor_is_built_in_at_most_6_calls(self, table):
        """``StaticExecutor(...)``: 6 calls with the caller's frame; the free
        communication model shares one frozen zero cost (8 when
        ``CommModel.free`` built and validated its own)."""
        graph, solution = build_tracker_graph(), table.lookup(State(n_models=3))
        assert exactly(lambda: StaticExecutor(
            graph, solution.state, CLUSTER, solution, runtime="sim"
        )) <= 6


def with_strays(observations):
    """Every seventh value off the state space's map: below it, above it,
    far above it — the values the detector clamps the long way."""
    return [
        (t, (0, 6, 9)[i // 7 % 3] if i % 7 == 6 else v)
        for i, (t, v) in enumerate(observations)
    ]


def replay(switcher, observations) -> list[int]:
    """Feed every observation; the positions whose switch the table refused."""
    refused = []
    for i, (t, v) in enumerate(observations):
        try:
            switcher.observe(t, v)
        except ScheduleLookupError:
            refused.append(i)
    return refused


def assert_same_decisions(new, old, observations) -> None:
    assert replay(new, observations) == replay(old, observations)
    assert new.detector.changes == old.detector.changes
    assert new.detector.current == old.detector.current
    assert new.records == old.records
    assert (new.total_stall, new.total_lost_iterations,
            new.total_replayed_iterations, new.resume_at) == (
        old.total_stall, old.total_lost_iterations,
        old.total_replayed_iterations, old.resume_at)


class TestSameDecisionsAsTheOracle:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sim_online_kiosk_rounds(self, table, seed, policy):
        for r in range(workloads.DISTINCT_ROUNDS):
            observations = kiosk_round(seed, r)
            for obs, space in ((observations, workloads.SIM_STATES),
                               (with_strays(observations), workloads.SIM_STATES),
                               (observations, None)):
                initial = State(n_models=1 + r)
                new = RegimeSwitcher(
                    table,
                    RegimeDetector("n_models", initial, workloads.CONFIRM, space),
                    POLICIES[policy],
                )
                old = OracleSwitcher(
                    table,
                    OracleDetector("n_models", initial, workloads.CONFIRM, space),
                    POLICIES[policy],
                )
                assert_same_decisions(new, old, obs)
                assert new.switch_count > 0

    def test_a_table_missing_a_state_refuses_it_at_the_same_observations(self):
        """A confirmed state the table lacks raises and is rolled back, then
        confirmed (and refused) again: the same positions, the same
        changes that took effect."""
        graph = build_tracker_graph()
        partial = ScheduleTable.build(
            graph, StateSpace.range("n_models", 1, 3), OptimalScheduler(CLUSTER)
        )
        observations = kiosk_round(1, 2)
        new = RegimeSwitcher(partial, RegimeDetector(
            "n_models", State(n_models=3), workloads.CONFIRM, workloads.SIM_STATES))
        old = OracleSwitcher(partial, OracleDetector(
            "n_models", State(n_models=3), workloads.CONFIRM, workloads.SIM_STATES),
            new.policy)
        assert_same_decisions(new, old, observations)
        assert replay(
            RegimeSwitcher(partial, RegimeDetector(
                "n_models", State(n_models=3), workloads.CONFIRM,
                workloads.SIM_STATES)),
            observations,
        )

    def test_a_multi_variable_space_resolves_like_the_long_way(self):
        """Off-space combinations (a value the space has, but not with the
        other variables the state holds) go through the map to the same
        confirmed states."""
        space = StateSpace([
            State(n_models=n, cams=c) for n in (1, 2, 3) for c in (1, 2)
            if (n, c) != (3, 2)
        ])
        values = [2, 3, 3, 1, 5, 5, 2, 0, 0, 3, 3, 3, 1, 1]
        for initial in (State(n_models=1, cams=2), State(n_models=2, cams=7)):
            new = RegimeDetector("n_models", initial, 2, space)
            old = OracleDetector("n_models", initial, 2, space)
            for i, v in enumerate(values):
                assert new.observe(float(i), v) == old.observe(float(i), v)
                assert new.current == old.current
            assert new.changes == old.changes and new.changes


def test_a_lazy_table_switcher_solves_only_the_states_it_visits():
    lazy = LazyScheduleTable(
        build_tracker_graph(), workloads.SIM_STATES, OptimalScheduler(CLUSTER)
    )
    sw = RegimeSwitcher(lazy, RegimeDetector(
        "n_models", State(n_models=1), workloads.CONFIRM, workloads.SIM_STATES))
    visited = {State(n_models=1)}
    for t, v in kiosk_round(1, 0):
        record = sw.observe(t, v)
        if record is not None:
            visited.add(record.new_solution.state)
    assert sw.switch_count > 0
    assert set(lazy.states()) == visited < set(workloads.SIM_STATES)


class CountingDrain(DrainTransition):
    """A drain that lists every pair it is asked to price."""

    def __init__(self, setup: float = 0.0) -> None:
        super().__init__(setup)
        self.asked: list[tuple[State, State]] = []

    def effect(self, old, new):
        self.asked.append((old.state, new.state))
        return super().effect(old, new)


def test_switchers_sharing_a_policy_price_each_pair_once(table):
    """``sim_online`` builds a switcher a round over one policy: the policy
    keeps the prices, so a pair a round before switched is not priced
    again — ``effect`` runs once per distinct pair over both switchers."""
    policy = CountingDrain(setup=0.25)
    switched = []
    for seed, r in ((1, 0), (2, 1)):
        sw = RegimeSwitcher(table, RegimeDetector(
            "n_models", State(n_models=1 + r), workloads.CONFIRM,
            workloads.SIM_STATES), policy)
        replay(sw, kiosk_round(seed, r))
        switched += [(rec.old_solution.state, rec.new_solution.state)
                     for rec in sw.records]
        assert all(rec.effect == POLICIES["drain"].effect(
            rec.old_solution, rec.new_solution) for rec in sw.records)
    assert len(switched) > len(set(switched)) > 1
    assert len(policy.asked) == len(set(policy.asked))
    assert set(policy.asked) == set(switched)


def clamped_maps(detector: RegimeDetector, space: StateSpace) -> dict:
    """The value maps as built before the members were indexed: a
    ``State.replace`` and a clamp per (state, value)."""
    variable = detector.variable
    members = {s: s for s in space if variable in s}
    values = {s[variable] for s in members}
    maps = {}
    for s in members:
        maps[s] = row = {}
        for v in values - {s[variable]}:
            new = detector._clamp(s.replace(**{variable: v}))
            row[v] = members.get(new, new)
    return maps


@pytest.mark.parametrize("space, leaves", [
    (workloads.SIM_STATES, False),
    (StateSpace([State(n_models=n, cams=c) for n in (1, 2, 3) for c in (1, 2)
                 if (n, c) != (3, 2)]), True),
], ids=["kiosk", "sparse-product"])
def test_value_maps_equal_the_clamped_construction(space, leaves):
    """Equal maps, and a confirmed state in the space is the space's own
    object; the sparse space's (2, cams=2) -> 3 leaves it."""
    initial = next(iter(space))
    detector = RegimeDetector("n_models", initial, 1, space)
    expected = clamped_maps(detector, space)
    assert detector._maps == expected
    members = {s: s for s in space}
    for row in detector._maps.values():
        for state in row.values():
            assert state not in members or state is members[state]
    off = [s for row in detector._maps.values() for s in row.values() if s not in members]
    assert bool(off) == leaves
