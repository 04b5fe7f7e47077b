"""``table_to_json`` writes ``json.dumps(payload, indent=2)``'s bytes.

The serializer emits indented JSON itself instead of running ``json``'s
pure-Python encoder (an indent switches the C one off).  The oracle for
every case here is the standard library: the payload
``table_to_json`` serializes, rebuilt with :func:`solution_to_dict`, passed
through ``json.dumps(payload, indent=2)`` — the exact call the serializer
made before — and compared byte for byte.
"""

from __future__ import annotations

import json
import json.encoder
import math
from unittest.mock import patch

import pytest

from repro.apps.tracker.graph import TRACKER_STATES, build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.serialize import _dumps, solution_to_dict, table_to_json
from repro.core.table import ScheduleTable
from repro.graph.builders import random_dag
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace
from repro.workloads import FAMILIES


def oracle(table: ScheduleTable) -> str:
    payload = {
        "format": "repro.schedule_table",
        "version": 1,
        "entries": [solution_to_dict(sol) for sol in table.solutions()],
    }
    return json.dumps(payload, indent=2)


def assert_golden(table: ScheduleTable) -> None:
    text = table_to_json(table)
    assert text == oracle(table)
    assert text.encode() == oracle(table).encode()


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
    payload = SYNTHETIC[name]
    assert _dumps(payload) == json.dumps(payload, indent=2)


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
    assert _dumps(payload) == json.dumps(payload, indent=2)


def test_unserializable_values_raise_type_error_like_json():
    for bad in ({"x": object()}, {"x": {1, 2}}, {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _dumps(bad)


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
