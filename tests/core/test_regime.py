"""Unit tests for regime detection, schedule tables, and transitions."""

from __future__ import annotations

import pytest

from repro.errors import RegimeError, ScheduleLookupError
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.core.transition import DrainTransition, ImmediateTransition
from repro.graph.builders import chain_graph
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State, StateSpace


class TestRegimeDetector:
    def test_immediate_confirmation(self):
        d = RegimeDetector("n_models", State(n_models=1), confirm=1)
        change = d.observe(1.0, 3)
        assert change is not None and change.new == State(n_models=3)
        assert d.current == State(n_models=3)

    def test_debounce_requires_consecutive_observations(self):
        d = RegimeDetector("n_models", State(n_models=1), confirm=3)
        assert d.observe(1.0, 2) is None
        assert d.observe(2.0, 2) is None
        change = d.observe(3.0, 2)
        assert change is not None and change.time == 3.0

    def test_flicker_absorbed(self):
        d = RegimeDetector("n_models", State(n_models=2), confirm=2)
        assert d.observe(1.0, 3) is None   # blip
        assert d.observe(2.0, 2) is None   # back to normal resets pending
        assert d.observe(3.0, 3) is None   # new candidate, count restarts
        assert d.observe(4.0, 3) is not None

    def test_pending_value_switch_resets_count(self):
        d = RegimeDetector("n_models", State(n_models=1), confirm=2)
        assert d.observe(1.0, 2) is None
        assert d.observe(2.0, 3) is None  # different candidate
        assert d.observe(3.0, 3) is not None  # 3 confirmed, not 2

    def test_clamping_to_space(self):
        space = StateSpace.range("n_models", 1, 5)
        d = RegimeDetector("n_models", State(n_models=5), confirm=1, space=space)
        assert d.observe(1.0, 9) is None  # clamps to 5 == current
        change = d.observe(2.0, 0)        # clamps to 1
        assert change is not None and change.new == State(n_models=1)

    def test_change_log(self):
        d = RegimeDetector("n_models", State(n_models=1))
        d.observe(1.0, 2)
        d.observe(2.0, 3)
        assert d.change_count == 2
        assert [c.new["n_models"] for c in d.changes] == [2, 3]

    def test_invalid_confirm(self):
        with pytest.raises(RegimeError):
            RegimeDetector("n_models", State(n_models=1), confirm=0)

    def test_missing_variable(self):
        with pytest.raises(RegimeError):
            RegimeDetector("n_models", State(other=1))


class TestScheduleTable:
    @pytest.fixture(scope="class")
    def table(self):
        return ScheduleTable.build(
            chain_graph([1.0, 1.0]),
            StateSpace.range("n_models", 1, 3),
            OptimalScheduler(SINGLE_NODE_SMP(2)),
        )

    def test_covers_space(self, table):
        assert len(table) == 3
        for m in (1, 2, 3):
            assert State(n_models=m) in table

    def test_lookup_missing_state(self, table):
        with pytest.raises(RegimeError):
            table.lookup(State(n_models=99))

    def test_summary(self, table):
        assert table.summary().count("L=") == 3


class TestRegimeSwitcher:
    def make_switcher(self, policy=None):
        table = ScheduleTable.build(
            chain_graph([1.0, 1.0]),
            StateSpace.range("n_models", 1, 3),
            OptimalScheduler(SINGLE_NODE_SMP(2)),
        )
        detector = RegimeDetector("n_models", State(n_models=1), confirm=1)
        return RegimeSwitcher(table, detector, policy=policy)

    def test_switch_on_confirmed_change(self):
        sw = self.make_switcher()
        record = sw.observe(5.0, 2)
        assert record is not None
        assert sw.active.state == State(n_models=2)
        assert sw.switch_count == 1

    def test_no_switch_without_change(self):
        sw = self.make_switcher()
        assert sw.observe(1.0, 1) is None
        assert sw.switch_count == 0

    def test_drain_stall_accounting(self):
        sw = self.make_switcher(policy=DrainTransition(setup=0.5))
        record = sw.observe(1.0, 3)
        assert record.effect.stall == pytest.approx(record.cause and 2.0 + 0.5)
        assert record.effect.lost_iterations == 0
        assert sw.total_stall == pytest.approx(2.5)

    def test_immediate_loses_in_flight(self):
        sw = self.make_switcher(policy=ImmediateTransition(setup=0.1))
        record = sw.observe(1.0, 2)
        assert record.effect.stall == pytest.approx(0.1)
        assert record.effect.lost_iterations >= 1
        assert sw.total_lost_iterations >= 1

    def test_initial_state_must_be_in_table(self):
        table = ScheduleTable.build(
            chain_graph([1.0]),
            StateSpace.range("n_models", 1, 2),
            OptimalScheduler(SINGLE_NODE_SMP(1)),
        )
        detector = RegimeDetector("n_models", State(n_models=7))
        with pytest.raises(RegimeError):
            RegimeSwitcher(table, detector)

    @pytest.mark.parametrize("confirm", [1, 2])
    def test_lookup_miss_keeps_detector_and_switcher_in_step(self, confirm):
        """An uncovered state raises every time it is confirmed, and neither
        side moves: never a silent wrong schedule."""
        table = ScheduleTable.build(
            chain_graph([1.0, 1.0]),
            StateSpace.range("n_models", 1, 2),
            OptimalScheduler(SINGLE_NODE_SMP(2)),
        )
        detector = RegimeDetector("n_models", State(n_models=1), confirm=confirm)
        sw = RegimeSwitcher(table, detector)
        t = 0.0
        for _attempt in range(2):
            for _ in range(confirm - 1):
                t += 1.0
                assert sw.observe(t, 3) is None
            t += 1.0
            with pytest.raises(ScheduleLookupError):
                sw.observe(t, 3)
            assert detector.current == sw.active.state == State(n_models=1)
            assert detector.changes == [] and sw.switch_count == 0
        # a covered state still switches afterwards, with an honest count
        for _ in range(confirm - 1):
            assert sw.observe(t + 1.0, 2) is None
        record = sw.observe(t + 2.0, 2)
        assert record.cause is detector.changes[-1]
        assert detector.current == sw.active.state == State(n_models=2)
        assert detector.change_count == sw.switch_count == 1

    def test_retract_rejects_anything_but_the_latest_change(self):
        d = RegimeDetector("n_models", State(n_models=1))
        first = d.observe(1.0, 2)
        d.observe(2.0, 3)
        with pytest.raises(RegimeError):
            d.retract(first)
        assert d.change_count == 2 and d.current == State(n_models=3)
