"""``table_to_json`` writes the table payload as compact standard-library JSON.

The oracle for every case is the standard library: the payload
``table_to_json`` serializes, rebuilt with :func:`solution_to_dict`,
passed through ``json.dumps(payload, separators=(",", ":"))`` — the
spelling the schedule cache uses for its entries — and compared byte for
byte.  A table file an earlier build wrote (``indent=2``) still loads.
"""

from __future__ import annotations

import json
import json.encoder
import math
from dataclasses import replace
from unittest.mock import patch

import pytest

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import (
    GapCertificate,
    IterationSchedule,
    PipelinedSchedule,
    Placement,
    ScheduleSolution,
)
from repro.core.serialize import (
    solution_from_dict,
    solution_to_dict,
    table_from_json,
    table_to_json,
)
from repro.core.table import ScheduleTable
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace
from repro.workloads import FAMILIES


def payload_of(table: ScheduleTable) -> dict:
    return {
        "format": "repro.schedule_table",
        "version": 1,
        "entries": [solution_to_dict(sol) for sol in table.solutions()],
    }


def oracle(table: ScheduleTable) -> str:
    return json.dumps(payload_of(table), separators=(",", ":"))


def assert_writes(table: ScheduleTable) -> str:
    text = table_to_json(table)
    assert text == oracle(table)
    assert text.encode() == oracle(table).encode()
    return text


def assert_golden(table: ScheduleTable) -> None:
    text = assert_writes(table)
    # The file loads back to the table it was written from.
    assert table_to_json(table_from_json(text)) == text


@pytest.mark.parametrize(
    "cluster", [ClusterSpec(2, 4), SINGLE_NODE_SMP(4)], ids=["2x4", "smp4"]
)
def test_tracker_table_on_both_benchmark_clusters(cluster):
    table = ScheduleTable.build(
        build_tracker_graph(), TRACKER_STATES, OptimalScheduler(cluster)
    )
    assert_golden(table)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_instance_of_every_workload_family(family):
    fam = FAMILIES[family]
    inst = fam.generate(100)
    table = ScheduleTable.build(
        fam.build_graph(inst), fam.state_space(inst), OptimalScheduler(fam.cluster(inst))
    )
    assert_golden(table)


@pytest.mark.parametrize("n_tasks", [5, 6, 7, 8])
def test_random_dag_tables(n_tasks):
    graph = random_dag(n_tasks, seed=n_tasks, dp_prob=0.3, item_bytes=4096)
    table = ScheduleTable.build(
        graph, StateSpace.range("n_models", 1, 2), OptimalScheduler(ClusterSpec(2, 2))
    )
    assert_golden(table)


@pytest.mark.parametrize("policy", ["bounded:0.5", "list"])
def test_entries_with_approximate_certificates(policy):
    table = ScheduleTable.build(
        build_tracker_graph(),
        StateSpace.range("n_models", 1, 3),
        OptimalScheduler(SINGLE_NODE_SMP(4)),
        policy=policy,
    )
    rung = policy.split(":")[0]
    assert {sol.certificate.policy for sol in table.solutions()} <= {rung, "exact"}
    assert any(sol.certificate.policy == rung for sol in table.solutions())
    assert_golden(table)


def test_table_to_json_never_enters_the_pure_python_encoder():
    table = ScheduleTable.build(
        build_tracker_graph(),
        StateSpace.range("n_models", 1, 2),
        OptimalScheduler(SINGLE_NODE_SMP(4)),
    )
    with patch.object(
        json.encoder, "_make_iterencode", side_effect=AssertionError("entered")
    ) as entered:
        text = table_to_json(table)
    assert entered.call_count == 0
    assert text == oracle(table)


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def _solution(placements, *, state=None, name="it", certificate=True, piped=None,
              period=1.5, shift=0, n_procs=4, alternatives=1, explored=0):
    iteration = IterationSchedule(placements, name=name)
    cert = GapCertificate("exact", 0.0, 2.0, 1.5, 0.0, 4) if certificate else None
    return ScheduleSolution(
        state=State(n_models=1) if state is None else state,
        iteration=iteration,
        pipelined=PipelinedSchedule(piped or iteration, period=period, shift=shift,
                                    n_procs=n_procs, name="M[" + name + "]"),
        alternatives=alternatives,
        explored=explored,
        certificate=cert,
    )


PLAIN = [Placement("T1", (0,), 0.0, 1.0), Placement("T2", (1, 2), 1.0, 0.5, "dp2")]

EMITTER_CASES = {
    "int starts and durations": _solution([
        Placement("T1", (0,), 0, 1), Placement("T2", (1,), 1, 2.5),
        Placement("T3", (2, 3), 3.5, 0, "dp2"),
    ]),
    "non-ascii names": _solution(
        [Placement("tâche-Ω", (0,), 0.0, 1.0, "dp1→😀"), Placement('a"b\\c', (1,), 0.0, 1.0)],
        name="itération ", state=State(mode="naïve", n=2),
    ),
    "nan and inf": _solution(
        [Placement("T1", (0,), 0.0, math.inf), Placement("T2", (1,), 0.0, math.nan)],
        period=math.inf,
    ),
    "an empty iteration": _solution([], n_procs=1),
    # A State needs a variable; the writer writes any mapping it is given.
    "an empty state": _solution(PLAIN, state={}),
    "no certificate": _solution(PLAIN, certificate=False),
    "an approximate certificate": replace(
        _solution(PLAIN), certificate=GapCertificate("bounded", 0.5, 1.0, 0.75, 0.5, 2)),
    "integer certificate fields": replace(
        _solution(PLAIN), certificate=GapCertificate("list", 0, 1, 1, 0, 2)),
    "state values of every kind": _solution(
        PLAIN, state=State(flag=True, off=False, label="x", n=3, rate=2.5)),
    "a distinct but equal pipelined iteration": _solution(
        PLAIN, piped=IterationSchedule(list(PLAIN), name="it")),
    "a different pipelined iteration": _solution(
        PLAIN, piped=IterationSchedule([replace(p, start=p.start + 0.25) for p in PLAIN],
                                       name="other")),
    "bool and float processors": _solution([
        Placement("T1", (True,), 0.0, 1.0), Placement("T2", (2.0, 3), 0.0, 1.0)]),
    "subclassed values": _solution(
        [Placement(type("Name", (str,), {})("T1"), (0,), 0.0, 1.0)],
        alternatives=type("Count", (int,), {"__repr__": lambda self: "Count()"})(7),
    ),
    "big counters": _solution(PLAIN, alternatives=2 ** 70, explored=-1),
}


@pytest.mark.parametrize("name", list(EMITTER_CASES))
def test_entry_emitter_cases(name):
    assert_writes(ScheduleTable({State(n_models=1): EMITTER_CASES[name]}))


def test_a_table_of_every_case_at_once():
    table = ScheduleTable({State(case=i): sol for i, sol in enumerate(EMITTER_CASES.values())})
    assert_writes(table)


# The cases whose values the loader gives back as written (it reads
# ``start`` / ``duration`` as floats and needs a state with a variable).
ROUND_TRIP = [
    "no certificate", "a distinct but equal pipelined iteration",
    "a different pipelined iteration", "non-ascii names", "nan and inf",
    "an empty iteration", "an approximate certificate", "big counters",
    "state values of every kind",
]


def test_edge_entries_round_trip_through_the_file():
    """Values a tracker table never holds still come back as written."""
    table = ScheduleTable({
        sol.state: sol for sol in (
            replace(sol, state=State(case=i, **sol.state))
            for i, sol in enumerate(EMITTER_CASES[name] for name in ROUND_TRIP)
        )
    })
    assert_golden(table)


def test_values_json_cannot_write_raise_type_error_like_json():
    bad = _solution(PLAIN, alternatives=object())
    with pytest.raises(TypeError):
        oracle(ScheduleTable({State(n_models=1): bad}))
    with pytest.raises(TypeError):
        table_to_json(ScheduleTable({State(n_models=1): bad}))


# ---------------------------------------------------------------------------
# Any value a field holds takes the standard library's compact spelling
# ---------------------------------------------------------------------------


def _carrying(value) -> ScheduleTable:
    """A one-entry table whose ``alternatives`` field holds ``value``:
    the writer passes that field to ``json`` as it is."""
    return ScheduleTable({State(n_models=1): _solution(PLAIN, alternatives=value)})


SYNTHETIC = {
    "non-ascii names": {"name": "tâche-Ω→😀", "naïve": ["ü", "\u2028", "\ufeff"]},
    "quotes and backslashes": {'a"b': 'c\\d"e', "path": "C:\\tmp\\x", "/": "</s>"},
    "control characters": {"ctl": "".join(map(chr, range(32))) + "\x7f"},
    "float edges": [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308,
                    2.0 ** 53 + 1, 123456789.125],
    "non-finite": [math.nan, math.inf, -math.inf],
    "big ints": [2 ** 63, 2 ** 63 - 1, -(2 ** 63) - 1, 10 ** 30, 0, -1],
    "empty containers": {"list": [], "dict": {}, "nested": [[], {}, [[]], {"e": {}}]},
    "state values": {"state": {"flag": True, "off": False, "none": None, "label": "x",
                               "n": 3, "rate": 2.5}},
    "tuples": {"procs": (0, 1, 2), "pair": ((), (1,))},
    "keys coerced": {1: "int", 2.5: "float", True: "bool", None: "none", -0.0: "negzero"},
    "deep": {"a": [{"b": [{"c": [1, [2, [3, {"d": []}]]]}]}]},
    "scalar top level": "just a string",
    "list top level": [1, "two", 3.0, None, False],
    "empty top level": {},
}


@pytest.mark.parametrize("name", list(SYNTHETIC))
def test_synthetic_payloads(name):
    """ASCII escapes, NaN and infinities, key coercion and tuples as
    lists: the file keeps ``json.dumps``'s defaults, only the separators
    are compact."""
    payload = SYNTHETIC[name]
    text = assert_writes(_carrying(payload))
    assert json.dumps(payload, separators=(",", ":")) in text


def test_subclasses_take_the_same_spelling():
    class Label(str):
        pass

    class Count(int):
        def __repr__(self):
            return "Count(...)"

    class Ratio(float):
        def __repr__(self):
            return "Ratio(...)"

    class Row(list):
        pass

    class Record(dict):
        pass

    payload = Record(
        label=Label("x\ty"), count=Count(7), ratio=Ratio(0.25), nan=Ratio(math.nan),
        row=Row([Count(1), Row()]), empty=Record(),
    )
    text = assert_writes(_carrying(payload))
    assert "(...)" not in text


def test_unserializable_values_raise_type_error_like_json():
    for bad in ({"x": object()}, {"x": {1, 2}}, {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            json.dumps(bad, separators=(",", ":"))
        with pytest.raises(TypeError):
            table_to_json(_carrying(bad))


# ---------------------------------------------------------------------------
# The loader: one iteration for both fields when the two dicts are equal
# ---------------------------------------------------------------------------


def test_a_loaded_entry_shares_its_iteration_exactly_when_the_dicts_are_equal():
    shared = solution_to_dict(EMITTER_CASES["no certificate"])
    loaded = solution_from_dict(shared)
    assert loaded.pipelined.iteration is loaded.iteration
    assert solution_to_dict(loaded) == shared

    equal = solution_to_dict(EMITTER_CASES["a distinct but equal pipelined iteration"])
    assert equal["pipelined"]["iteration"] == equal["iteration"]
    loaded = solution_from_dict(equal)
    assert loaded.pipelined.iteration is loaded.iteration

    data = solution_to_dict(EMITTER_CASES["a different pipelined iteration"])
    assert data["pipelined"]["iteration"] != data["iteration"]
    loaded = solution_from_dict(data)
    assert loaded.pipelined.iteration is not loaded.iteration
    assert solution_to_dict(loaded) == data

    renamed = json.loads(json.dumps(shared))
    renamed["pipelined"]["iteration"]["name"] = "renamed"
    loaded = solution_from_dict(renamed)
    assert loaded.pipelined.iteration is not loaded.iteration
    assert loaded.pipelined.iteration.name == "renamed"
    assert solution_to_dict(loaded) == renamed


def test_an_indented_table_from_an_older_build_loads_and_rewrites_compact():
    """Earlier builds wrote ``json.dumps(payload, indent=2)``'s bytes (their
    golden test held that text as the oracle).  Such a file loads to equal
    solutions, one iteration object per entry, and re-writes to the compact
    text of the same payload."""
    table = ScheduleTable.build(
        build_tracker_graph(), TRACKER_STATES, OptimalScheduler(ClusterSpec(2, 4))
    )
    indented = json.dumps(payload_of(table), indent=2)
    loaded = table_from_json(indented)
    assert payload_of(loaded) == payload_of(table)
    assert all(s.pipelined.iteration is s.iteration for s in loaded.solutions())
    assert table_to_json(loaded) == oracle(table)
