"""Unit and property tests for State/StateSpace and the error hierarchy."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

import repro.errors as errors
from repro.state import State, StateSpace


class TestState:
    def test_attribute_and_item_access(self):
        s = State(n_models=3, n_cameras=2)
        assert s.n_models == 3 and s["n_cameras"] == 2

    def test_mapping_protocol(self):
        s = State(b=2, a=1)
        assert dict(s) == {"a": 1, "b": 2}
        assert len(s) == 2 and "a" in s

    def test_immutability(self):
        s = State(n_models=1)
        with pytest.raises(AttributeError):
            s.n_models = 2  # type: ignore[misc]

    def test_equality_ignores_kwarg_order(self):
        assert State(a=1, b=2) == State(b=2, a=1)
        assert hash(State(a=1, b=2)) == hash(State(b=2, a=1))

    def test_usable_as_dict_key(self):
        d = {State(n_models=4): "x"}
        assert d[State(n_models=4)] == "x"

    def test_replace(self):
        s = State(n_models=1)
        t = s.replace(n_models=2, extra=True)
        assert t.n_models == 2 and t.extra is True
        assert s.n_models == 1  # original untouched

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            State()

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            State(a=1).b

    def test_copy_and_unpickle_fail_typed(self):
        # A State is built by its constructor only: a copy or an unpickle
        # that bypasses it stops at the immutability guard, not in a
        # __getattr__ recursion.
        s = State(a=1)
        with pytest.raises(AttributeError):
            copy.copy(s)
        with pytest.raises(AttributeError):
            pickle.loads(pickle.dumps(s))

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_equality_iff_same_values(self, a, b):
        assert (State(x=a) == State(x=b)) == (a == b)


class TestStateSpace:
    def test_range(self):
        space = StateSpace.range("n_models", 1, 5)
        assert len(space) == 5
        assert space[0] == State(n_models=1)
        assert space.index(State(n_models=3)) == 2

    def test_product(self):
        space = StateSpace.product(a=[1, 2], b=["x", "y"])
        assert len(space) == 4
        assert State(a=2, b="x") in space

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([])
        with pytest.raises(ValueError):
            StateSpace.range("m", 5, 4)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([State(a=1), State(a=1)])

    def test_membership(self):
        space = StateSpace.range("n_models", 1, 3)
        assert State(n_models=2) in space
        assert State(n_models=9) not in space


class TestErrorHierarchy:
    """Every library error must be catchable as ReproError."""

    @pytest.mark.parametrize(
        "exc",
        [
            errors.SimulationError,
            errors.SimTimeError,
            errors.SimDeadlock,
            errors.ProcessError,
            errors.ClusterError,
            errors.GraphError,
            errors.DuplicateNameError,
            errors.UnknownNameError,
            errors.CycleError,
            errors.CostModelError,
            errors.STMError,
            errors.ChannelClosed,
            errors.DuplicateTimestamp,
            errors.ItemConsumed,
            errors.ConnectionError_,
            errors.ScheduleError,
            errors.InvalidSchedule,
            errors.InfeasibleSchedule,
            errors.RegimeError,
            errors.DecompositionError,
            errors.ExperimentError,
        ],
    )
    def test_subclass_of_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_deadlock_message_lists_blocked(self):
        e = errors.SimDeadlock(["taskA", "taskB"])
        assert "taskA" in str(e) and "taskB" in str(e)

    def test_item_unavailable_carries_neighbours(self):
        e = errors.ItemUnavailable(5, below=3, above=8)
        assert (e.timestamp, e.below, e.above) == (5, 3, 8)
        assert issubclass(errors.ItemUnavailable, errors.STMError)

    def test_unknown_name_reads_cleanly(self):
        # KeyError subclass, but str() must not add quotes.
        e = errors.UnknownNameError("no task named 'x'")
        assert str(e) == "no task named 'x'"


class TestReportFormatter:
    def test_alignment_and_floats(self):
        from repro.experiments.report import format_table

        text = format_table(["name", "value"], [["a", 1.23456], ["bbbb", 7]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in text  # floats rendered to 3 decimals
        assert "bbbb" in text

    def test_title_and_empty_rows(self):
        from repro.experiments.report import format_table

        text = format_table(["h"], [], title="T")
        assert text.splitlines()[0] == "T"


class TestExperimentsCLI:
    def test_table1_via_cli(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 reproduction" in out and "shape holds: True" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_workers_flag_rejected(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--quick", "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_quick_figure5(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure5", "--quick"]) == 0
        assert "latency ordering" in capsys.readouterr().out
