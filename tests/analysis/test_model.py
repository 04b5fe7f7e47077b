"""Pass 5 (model checker): M rules, counterexamples, replay."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ChannelDecl,
    Severity,
    build_model,
    check_model,
    minimal_capacity,
    replay_trace,
)
from repro.analysis.model import collector_name
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph


def rules(report):
    return {f.rule for f in report.findings}


def by_rule(report, rid):
    return [f for f in report.findings if f.rule == rid]


def _bounded_chain(capacity):
    g = TaskGraph("pipe")
    g.add_channel(ChannelSpec("c", capacity=capacity))
    g.add_channel(ChannelSpec("out"))
    g.add_task(Task("A", 1.0, outputs=["c"]))
    g.add_task(Task("B", 1.0, inputs=["c"], outputs=["out"]))
    return g


WINDOW2 = (ChannelDecl("B", "c", window=2),)


class TestExplore:
    def test_default_decls_terminate_clean(self):
        model = build_model(_bounded_chain(1))
        result = model.explore()
        assert result.ok and result.verdict == "ok"
        assert not result.trace and not result.blocked

    def test_window_exceeding_capacity_deadlocks(self):
        # B holds 2 items of a capacity-1 channel before consuming: A's
        # second put and B's second get wait on each other forever.
        model = build_model(_bounded_chain(1), decls=WINDOW2)
        result = model.explore()
        assert result.verdict == "deadlock"
        assert "A" in result.deadlocked and "B" in result.deadlocked
        assert result.trace, "deadlock must come with a counterexample"
        # The minimized trace replays to the wedged state at model level.
        model.run_trace(result.trace)

    def test_capacity_two_absorbs_the_window(self):
        model = build_model(_bounded_chain(2), decls=WINDOW2)
        assert model.explore().ok

    def test_por_and_full_bfs_agree(self):
        for cap, decls in [(1, ()), (1, WINDOW2), (2, WINDOW2)]:
            g = _bounded_chain(cap)
            por = build_model(g, decls=decls).explore(por=True)
            bfs = build_model(g, decls=decls).explore(por=False)
            assert por.verdict == bfs.verdict
            # POR explores a single interleaving; full BFS at least that.
            assert bfs.states >= por.states

    def test_stride_mismatch_starves_consumer(self):
        # A emits only even timestamps; B (default decl) waits on c@1,
        # which is in no remaining program: starvation, not deadlock.
        model = build_model(
            _bounded_chain(1), decls=(ChannelDecl("A", "c", stride=2),)
        )
        result = model.explore()
        assert result.verdict == "starvation"
        assert "B" in result.starved
        assert collector_name("out") in result.starved

    def test_budget_truncation(self):
        result = build_model(_bounded_chain(1)).explore(budget=3)
        assert result.verdict == "budget"
        assert result.states <= 4

    def test_decl_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_model(_bounded_chain(1), decls=(ChannelDecl("A", "nope"),))

    def test_decl_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ChannelDecl("B", "c", window=0)


class TestMinimalCapacity:
    def test_window_two_needs_capacity_two(self):
        assert minimal_capacity(_bounded_chain(1), "c", decls=WINDOW2) == 2

    def test_matches_brute_force_on_windowed_chains(self):
        # Property: the POR scan agrees with a full-BFS scan for every
        # window the horizon admits (monotone in capacity, so each scan
        # stops at its first safe value).
        for window in (1, 2, 3):
            decls = (ChannelDecl("B", "c", window=window),)
            g = _bounded_chain(1)
            fast = minimal_capacity(g, "c", decls=decls, por=True)
            slow = minimal_capacity(g, "c", decls=decls, por=False)
            assert fast == slow == window

    def test_unfixable_wedge_returns_none(self):
        # Starvation from a stride mismatch: no capacity helps.
        decls = (ChannelDecl("A", "c", stride=2),)
        assert minimal_capacity(_bounded_chain(1), "c", decls=decls) is None


class TestCheckModel:
    def test_clean_chain_certifies_capacity(self):
        report = check_model(_bounded_chain(1))
        assert "M001" not in rules(report) and "M002" not in rules(report)
        (m3,) = by_rule(report, "M003")
        assert m3.severity is Severity.INFO
        assert "certified" in m3.message

    def test_under_capacity_emits_m001_and_m003_error(self):
        report = check_model(_bounded_chain(1), decls=WINDOW2)
        (m1,) = by_rule(report, "M001")
        assert m1.severity is Severity.ERROR
        assert "counterexample" in m1.message
        (m3,) = by_rule(report, "M003")
        assert m3.severity is Severity.ERROR
        assert "below the minimal safe capacity 2" in m3.message

    def test_over_provisioned_is_info(self):
        report = check_model(_bounded_chain(4))
        (m3,) = by_rule(report, "M003")
        assert m3.severity is Severity.INFO
        assert "over-provisioned" in m3.message

    def test_starvation_emits_m002(self):
        report = check_model(
            _bounded_chain(1), decls=(ChannelDecl("A", "c", stride=2),)
        )
        (m2,) = by_rule(report, "M002")
        assert m2.severity is Severity.ERROR
        assert "never be satisfied" in m2.message

    def test_budget_emits_m004_and_no_claims(self):
        report = check_model(_bounded_chain(1), budget=3)
        (m4,) = by_rule(report, "M004")
        assert m4.severity is Severity.WARNING
        assert "no deadlock-freedom claim" in m4.message
        assert "M003" not in rules(report)

    @pytest.mark.parametrize("once", [list, iter], ids=["list", "iterator"])
    def test_one_shot_decls_reach_the_capacity_scan(self, once):
        # The window-3 sink wedges a capacity-2 channel; the M003 scan must
        # see the declaration too, or it certifies capacity 1 beside M001.
        from repro.analysis import model as model_mod

        model_mod._proofs.clear()  # explore afresh, whatever ran before
        report = check_model(
            _bounded_chain(2), decls=once([ChannelDecl("B", "c", window=3)])
        )
        assert "M001" in rules(report)
        (m3,) = by_rule(report, "M003")
        assert m3.severity is Severity.ERROR
        assert "below the minimal safe capacity 3" in m3.message

    def test_unbounded_graph_is_silent(self):
        g = TaskGraph("unbounded")
        g.add_channel(ChannelSpec("c"))
        g.add_task(Task("A", 1.0, outputs=["c"]))
        g.add_task(Task("B", 1.0, inputs=["c"]))
        assert not check_model(g).findings


class TestReplay:
    def test_counterexample_wedges_real_runtime(self):
        g = _bounded_chain(1)
        model = build_model(g, decls=WINDOW2)
        result = model.explore()
        assert result.verdict == "deadlock"
        outcome = replay_trace(
            g, result.trace, result.deadlocked, decls=WINDOW2, model=model
        )
        assert outcome.wedged, (outcome.errors, outcome.progressed)
        assert not outcome.errors
        assert set(outcome.blocked) == set(result.deadlocked)

    def test_negative_control_capacity_two_progresses(self):
        # Same trace prefix on a capacity-2 channel: nothing wedges.
        g1 = _bounded_chain(1)
        result = build_model(g1, decls=WINDOW2).explore()
        g2 = _bounded_chain(2)
        outcome = replay_trace(g2, result.trace, result.deadlocked, decls=WINDOW2)
        assert not outcome.wedged
        assert "A" in outcome.progressed and "B" in outcome.progressed

    def test_invalid_trace_is_rejected_before_threads(self):
        from repro.analysis import Step

        g = _bounded_chain(1)
        bogus = [Step("B", "get", "c", 0)]  # get before any put
        with pytest.raises(ValueError):
            replay_trace(g, bogus, ["A"])


class TestShippedConfigurations:
    """Acceptance: zero M001/M002 on everything the repo ships."""

    def test_tracker_graph_is_wedge_free(self):
        from repro.apps.tracker.graph import build_tracker_graph

        report = check_model(build_tracker_graph())
        assert "M001" not in rules(report) and "M002" not in rules(report)

    @pytest.mark.parametrize("family", ["matmul", "fusion", "webinfer"])
    def test_workload_families_are_wedge_free(self, family):
        from repro.workloads import get_family, load_dataset

        fam = get_family(family)
        inst = load_dataset(family)[0]
        report = check_model(fam.build_graph(inst))
        assert "M001" not in rules(report) and "M002" not in rules(report)

    def test_builder_graphs_are_wedge_free(self):
        from repro.graph.builders import chain_graph, fork_join_graph, random_dag

        for g in (
            chain_graph([1.0, 2.0, 1.0]),
            fork_join_graph(0.1, [1.0, 1.2, 0.8], 0.2),
            random_dag(n_tasks=8, seed=7, dp_prob=0.3),
        ):
            report = check_model(g)
            assert "M001" not in rules(report) and "M002" not in rules(report)


class TestVerifyGate:
    def test_schedule_table_verify_runs_model_pass(self):
        from repro.core.optimal import OptimalScheduler
        from repro.core.table import ScheduleTable
        from repro.graph.builders import chain_graph
        from repro.sim.cluster import SINGLE_NODE_SMP
        from repro.state import StateSpace

        table = ScheduleTable.build(
            chain_graph([1.0, 1.0]),
            StateSpace.range("n_models", 1, 2),
            OptimalScheduler(SINGLE_NODE_SMP(2)),
            verify=True,  # must not raise: the model proves the chain safe
        )
        assert len(table) == 2
