"""Unit tests for schedule persistence."""

from __future__ import annotations

import copy
import json

import pytest

from repro.errors import ScheduleError
from repro.core.optimal import OptimalScheduler
from repro.core.serialize import (
    iteration_from_dict,
    iteration_to_dict,
    pipelined_from_dict,
    pipelined_to_dict,
    solution_from_dict,
    solution_to_dict,
    table_from_json,
    table_to_json,
)
from repro.core.table import ScheduleTable
from repro.graph.builders import chain_graph
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State, StateSpace


@pytest.fixture(scope="module")
def tracker_solution():
    from repro.apps.tracker.graph import build_tracker_graph

    return OptimalScheduler(SINGLE_NODE_SMP(4)).solve(
        build_tracker_graph(), State(n_models=8)
    )


class TestRoundTrips:
    def test_iteration_round_trip(self, tracker_solution):
        restored = iteration_from_dict(iteration_to_dict(tracker_solution.iteration))
        assert restored.canonical_key() == tracker_solution.iteration.canonical_key()
        assert restored.latency == pytest.approx(tracker_solution.latency)

    def test_pipelined_round_trip(self, tracker_solution):
        restored = pipelined_from_dict(pipelined_to_dict(tracker_solution.pipelined))
        assert restored.period == pytest.approx(tracker_solution.period)
        assert restored.shift == tracker_solution.pipelined.shift
        restored.validate_conflict_free()

    def test_solution_round_trip(self, tracker_solution):
        restored = solution_from_dict(solution_to_dict(tracker_solution))
        assert restored.state == tracker_solution.state
        assert restored.latency == pytest.approx(tracker_solution.latency)
        assert restored.alternatives == tracker_solution.alternatives

    def test_table_round_trip(self):
        from repro.apps.tracker.graph import build_tracker_graph

        table = ScheduleTable.build(
            build_tracker_graph(),
            StateSpace.range("n_models", 1, 3),
            OptimalScheduler(SINGLE_NODE_SMP(4)),
        )
        restored = table_from_json(table_to_json(table))
        assert len(restored) == 3
        for state in table.states():
            assert restored.lookup(state).latency == pytest.approx(
                table.lookup(state).latency
            )

    def test_restored_schedule_executes(self, tracker_solution):
        """A loaded schedule runs through the static executor unchanged."""
        from repro.apps.tracker.graph import build_tracker_graph
        from repro.runtime.static_exec import StaticExecutor

        restored = pipelined_from_dict(pipelined_to_dict(tracker_solution.pipelined))
        result = StaticExecutor(
            build_tracker_graph(), State(n_models=8), SINGLE_NODE_SMP(4), restored
        ).run(4)
        assert result.meta["slips"] == 0


class TestMalformedInput:
    def test_not_json(self):
        with pytest.raises(ScheduleError, match="JSON"):
            table_from_json("{nope")

    def test_wrong_format_marker(self):
        with pytest.raises(ScheduleError, match="not a schedule table"):
            table_from_json('{"format": "something-else"}')

    def test_wrong_version(self):
        with pytest.raises(ScheduleError, match="version"):
            table_from_json('{"format": "repro.schedule_table", "version": 99}')

    def test_missing_fields(self):
        with pytest.raises(ScheduleError, match="missing"):
            iteration_from_dict({"name": "x"})
        with pytest.raises(ScheduleError, match="missing"):
            pipelined_from_dict({"period": 1.0})


class TestHostileTables:
    """Every malformed table raises ``ScheduleError``, never an untyped error."""

    @pytest.fixture(scope="class")
    def payload(self):
        table = ScheduleTable.build(
            chain_graph([1.0, 2.0]),
            StateSpace.range("n_models", 1, 2),
            OptimalScheduler(SINGLE_NODE_SMP(2)),
        )
        return json.loads(table_to_json(table))

    def load(self, payload):
        return table_from_json(json.dumps(payload))

    def test_the_untouched_payload_loads(self, payload):
        assert len(self.load(payload)) == 2

    def test_top_level_array(self, payload):
        with pytest.raises(ScheduleError, match="not a schedule table"):
            self.load([payload])

    def test_entries_not_a_list(self, payload):
        with pytest.raises(ScheduleError, match="entries"):
            self.load({**payload, "entries": 5})

    def test_state_not_an_object(self, payload):
        bad = copy.deepcopy(payload)
        bad["entries"][0]["state"] = [1, 2]
        with pytest.raises(ScheduleError, match="malformed solution"):
            self.load(bad)

    def test_procs_not_a_list(self, payload):
        bad = copy.deepcopy(payload)
        bad["entries"][0]["iteration"]["placements"][0]["procs"] = 0
        with pytest.raises(ScheduleError, match="malformed solution"):
            self.load(bad)

    def test_start_not_a_number(self, payload):
        bad = copy.deepcopy(payload)
        bad["entries"][0]["iteration"]["placements"][0]["start"] = "x"
        with pytest.raises(ScheduleError, match="malformed solution"):
            self.load(bad)

    def test_same_state_twice(self, payload):
        bad = copy.deepcopy(payload)
        bad["entries"].append(copy.deepcopy(bad["entries"][0]))
        with pytest.raises(ScheduleError, match="twice"):
            self.load(bad)

