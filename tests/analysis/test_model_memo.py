"""``check_model`` explores each channel structure once per process.

What it remembers is keyed by what ``build_model`` reads — every task's
name, inputs and outputs, every channel's name, ``static`` flag and
capacity, and the call's decls / capacities / horizon / budget — and holds
verdict data only.  Everything a call locates or annotates (the graph's
name, the schedule's in-flight notes, the P002 estimate where nothing is
proved) is written afresh, so a remembered verdict must read exactly like a
fresh one.
Each test starts from an empty memo: none depends on what ran before it.
"""

from __future__ import annotations

import gc
import weakref
from functools import lru_cache

import pytest

import repro.analysis.model as model_mod
from repro.analysis import AnalysisReport, ChannelDecl, check_model, check_stm
from repro.analysis.model import StmModel
from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.graph.builders import random_dag
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.obs.calibrate import ScaledCost, graph_with_costs
from repro.sim.cluster import SINGLE_NODE_SMP
from repro.state import State
from repro.workloads import get_family, load_dataset


@pytest.fixture(autouse=True)
def empty_memo():
    model_mod._proofs.clear()


@pytest.fixture
def explored(monkeypatch):
    """How many times ``StmModel.explore`` ran (a count: no model is kept)."""
    count = [0]
    real = StmModel.explore

    def counted(self, *args, **kwargs):
        count[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StmModel, "explore", counted)
    return count


def _chain(capacity, name="pipe"):
    g = TaskGraph(name)
    g.add_channel(ChannelSpec("c", capacity=capacity))
    g.add_channel(ChannelSpec("out"))
    g.add_task(Task("A", 1.0, outputs=["c"]))
    g.add_task(Task("B", 1.0, inputs=["c"], outputs=["out"]))
    return g


def _waits(name="waits"):
    """A two-channel wait cycle the model proves safe."""
    g = TaskGraph(name)
    g.add_channel(ChannelSpec("c1", capacity=1))
    g.add_channel(ChannelSpec("c2"))
    g.add_task(Task("A", 1.0, outputs=["c1", "c2"]))
    g.add_task(Task("B", 1.0, inputs=["c1", "c2"]))
    return g


def _pair():
    """A capacity-1 channel its schedule overruns and M003 certifies."""
    g = TaskGraph("pair")
    g.add_channel(ChannelSpec("ab", capacity=1))
    g.add_task(Task("A", 1.0, outputs=["ab"]))
    g.add_task(Task("B", 1.0, inputs=["ab"]))
    return g


def _rewired():
    g = _chain(1)
    g.add_channel(ChannelSpec("tap", capacity=1))
    g.remove_task("B")
    g.add_task(Task("B", 1.0, inputs=["c"], outputs=["out", "tap"]))
    g.add_task(Task("C", 1.0, inputs=["tap"]))
    return g


def _family(name):
    return get_family(name).build_graph(load_dataset(name)[0])


@lru_cache(maxsize=None)
def _solution(case):
    graph = CASES[case][0]()
    return OptimalScheduler(SINGLE_NODE_SMP(2)).solve(graph, State(n_models=1))


WINDOW2 = (ChannelDecl("B", "c", window=2),)

#: name -> (graph factory, solve a schedule for M003's notes, check_model kwargs)
CASES = {
    "tracker": (build_tracker_graph, True, {}),
    "matmul": (lambda: _family("matmul"), False, {}),
    "fusion": (lambda: _family("fusion"), False, {}),
    "webinfer": (lambda: _family("webinfer"), False, {}),
    **{
        f"random_dag5-s{seed}": (
            lambda seed=seed: random_dag(5, seed, dp_prob=0.3), False, {}
        )
        for seed in (0, 1, 2, 3)
    },
    "deadlock": (lambda: _chain(1), False, {"decls": WINDOW2}),
    "starvation": (lambda: _chain(1), False,
                   {"decls": (ChannelDecl("A", "c", stride=2),)}),
    "budget": (_waits, True, {"budget": 3}),
    "capacities": (_waits, False, {"capacities": {"c1": 3}}),
    "decls": (lambda: _chain(4), False, {"decls": WINDOW2}),
    "overrun": (_pair, True, {}),
    "horizon": (lambda: _chain(2), False, {"horizon": 6}),
}


def findings(case, name=None):
    """``check_stm`` then ``check_model`` on a freshly built graph, as tuples."""
    build, scheduled, kwargs = CASES[case]
    graph = build()
    if name is not None:
        graph.name = name
    sols = [_solution(case)] if scheduled else []
    report = AnalysisReport()
    check_stm(graph, report=report)
    check_model(graph, solutions=sols, report=report, **kwargs)
    return [(f.rule, f.severity, f.location, f.message) for f in report.findings]


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_remembered_verdict_reads_like_a_fresh_one(case, explored):
    if CASES[case][1]:
        _solution(case)  # solved before counting: a solve explores nothing
    fresh = findings(case)
    assert explored[0] > 0
    explored[0] = 0
    assert findings(case) == fresh
    assert explored[0] == 0


def test_the_cases_cover_every_m_rule_and_the_fallback():
    every = [f for case in CASES for f in findings(case)]
    assert {"M001", "M002", "M003", "M004", "P002"} <= {f[0] for f in every}
    messages = [msg for *_, msg in every]
    assert any("(slip-free bound)" in m for m in messages)
    assert any("items of 'c1' in flight" in m for m in messages)
    assert any("counterexample" in m for m in messages)


@pytest.mark.parametrize(
    "changed",
    [
        pytest.param(lambda: (_chain(2), {}), id="recapacitated"),
        pytest.param(lambda: (_rewired(), {}), id="rewired"),
        pytest.param(lambda: (_chain(1), {"capacities": {"c": 2}}), id="capacities"),
        pytest.param(lambda: (_chain(1), {"decls": WINDOW2}), id="decls"),
        pytest.param(lambda: (_chain(1), {"horizon": 5}), id="horizon"),
        pytest.param(lambda: (_chain(1), {"budget": 3}), id="budget"),
    ],
)
def test_a_changed_structure_explores_again(changed, explored):
    check_model(_chain(1))
    before = explored[0]
    check_model(_chain(1))
    assert explored[0] == before
    graph, kwargs = changed()
    check_model(graph, **kwargs)
    assert explored[0] > before


def test_findings_are_located_at_the_graph_they_were_asked_about(explored):
    first = findings("capacities")
    explored[0] = 0
    other = findings("capacities", name="elsewhere")
    assert explored[0] == 0
    assert other and all(loc.startswith("graph:elsewhere/") for _, _, loc, _ in other)
    assert [(r, s, m) for r, s, _, m in other] == [(r, s, m) for r, s, _, m in first]
    moved = [loc.replace("graph:elsewhere/", "graph:waits/") for _, _, loc, _ in other]
    assert moved == [loc for _, _, loc, _ in first]


@pytest.mark.parametrize(
    "build", [build_tracker_graph, lambda: _chain(1)], ids=["tracker", "chain"]
)
def test_recalibrated_costs_reuse_the_proof(build, explored):
    graph = build()
    before = [(f.rule, f.severity, f.message) for f in check_model(graph).findings]
    assert explored[0] > 0
    explored[0] = 0
    slower = graph_with_costs(
        graph, {t.name: ScaledCost(t.cost, 1.5) for t in graph.tasks}
    )
    report = check_model(slower)
    assert explored[0] == 0
    assert [(f.rule, f.severity, f.message) for f in report.findings] == before
    assert all(f.location.startswith(f"graph:{slower.name}/") for f in report.findings)


def test_the_memo_keeps_no_graph_alive():
    graph = _chain(1)
    check_model(graph, decls=WINDOW2)
    check_model(graph)
    assert len(model_mod._proofs) == 2
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None


def test_the_memo_is_bounded():
    for capacity in range(1, 2 * model_mod._PROOFS_KEPT + 1):
        check_model(_chain(1), capacities={"c": capacity}, horizon=4)
    assert len(model_mod._proofs) == model_mod._PROOFS_KEPT
