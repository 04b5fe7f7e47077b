"""Differential tests: the callback replay vs. the generator body it replaced.

``StaticExecutor.run`` drives every placement as four plain calls on the
DES heap (``Simulator.call_at``) and launches frame *k* at ``k * II``; the
body it replaced — one generator ``Process`` per placement per frame, all
created at t = 0 — is kept verbatim in ``static_generator_oracle.py``.
Both run here on the same inputs and must agree on everything a result
reports: frames, times (to 1e-9 — ``call_at`` removes the
``now + (t - now)`` round trip, so an ulp may differ), spans, STM traffic
per channel, GC totals, slips and the contended-fabric accounting.  The
blocking branches are covered on purpose: capacity-1 channels (a put waits
for the next change) and ``contended=True`` (a placement waits for a
``LinkFabric.transfer`` process).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.apps.tracker.graph import build_tracker_graph
from repro.core.optimal import OptimalScheduler
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.errors import SimDeadlock
from repro.graph.builders import chain_graph, fork_join_graph, random_dag
from repro.graph.channel import ChannelSpec
from repro.graph.task import Task
from repro.graph.taskgraph import TaskGraph
from repro.obs import Observability
from repro.runtime.hub import ChannelHub
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.sim.network import CommCost, CommModel
from repro.state import State

from .static_generator_oracle import GeneratorStaticExecutor
from .test_sim_world import CASES

TOL = 1e-9
FRAMES = 12


def run_both(graph, state, cluster, schedule, frames=FRAMES, **kwargs):
    new = StaticExecutor(graph, state, cluster, schedule, **kwargs).run(frames)
    old = GeneratorStaticExecutor(graph, state, cluster, schedule, **kwargs).run(frames)
    return new, old


def assert_same_run(new, old):
    assert new.completed == old.completed
    for ts in old.completed:
        assert new.completion_times[ts] == pytest.approx(old.completion_times[ts], abs=TOL)
    assert sorted(new.digitize_times) == sorted(old.digitize_times)
    for ts, t in old.digitize_times.items():
        assert new.digitize_times[ts] == pytest.approx(t, abs=TOL)

    key = lambda s: (s.proc, s.task, s.timestamp)
    assert Counter(map(key, new.trace.spans)) == Counter(map(key, old.trace.spans))
    for a, b in zip(sorted(new.trace.spans, key=key), sorted(old.trace.spans, key=key)):
        assert a.start == pytest.approx(b.start, abs=TOL)
        assert a.end == pytest.approx(b.end, abs=TOL)

    ops = lambda res: Counter((e.channel, e.kind) for e in res.trace.items)
    assert ops(new) == ops(old)
    assert new.gc_collected == old.gc_collected
    assert new.live_item_high_water == old.live_item_high_water
    for name in ("slips", "contended_time", "transfers", "max_slip"):
        assert new.meta[name] == pytest.approx(old.meta[name], abs=TOL), name
    assert new.horizon == pytest.approx(old.horizon, abs=TOL)


def with_capacity(graph: TaskGraph, capacity: int) -> TaskGraph:
    for spec in graph.channels:
        if not spec.static:
            spec.capacity = capacity
    return graph


def real_comm(cluster: ClusterSpec) -> CommModel:
    return CommModel(
        cluster,
        intra_node=CommCost(0.01, float("inf")),
        inter_node=CommCost(0.05, float("inf")),
    )


class TestSameRunAsTheGeneratorBody:
    @pytest.mark.parametrize(
        "make_graph,state,cluster", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_sim_world_cases(self, make_graph, state, cluster):
        graph = make_graph()
        solution = OptimalScheduler(cluster).solve(graph, state)
        new, old = run_both(graph, state, cluster, solution)
        assert new.meta["slips"] == 0
        assert new.completed == list(range(FRAMES))
        assert_same_run(new, old)

    @pytest.mark.parametrize(
        "cluster", [SINGLE_NODE_SMP(4), ClusterSpec(2, 4)], ids=["smp4", "2x4"]
    )
    @pytest.mark.parametrize("n_models", [1, 4, 8])
    def test_tracker_with_communication_costs(self, cluster, n_models):
        graph, state, comm = build_tracker_graph(), State(n_models=n_models), real_comm(cluster)
        solution = OptimalScheduler(cluster, comm=comm).solve(graph, state)
        new, old = run_both(graph, state, cluster, solution, comm=comm)
        assert new.meta["slips"] == 0
        assert_same_run(new, old)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_dags_on_their_own_schedules(self, seed):
        """Seeded DAGs (data-parallel variants, fan-in, fan-out) on the
        schedule the solver gives them: nothing slips, and then the two
        bodies agree whatever the shape."""
        rng = random.Random(seed)
        cluster = rng.choice([SINGLE_NODE_SMP(2), SINGLE_NODE_SMP(4), ClusterSpec(2, 2)])
        graph = random_dag(rng.choice([3, 4, 5]), seed, dp_prob=0.4)
        state = State(n_models=4)
        # one cost for every non-local transfer: processors rotate across
        # nodes from one iteration to the next, tiers would change under them
        comm = rng.choice([None, CommModel.uniform(cluster, 0.02, float("inf"))])
        solution = OptimalScheduler(cluster, comm=comm).solve(graph, state)
        new, old = run_both(graph, state, cluster, solution, frames=20, comm=comm)
        assert new.meta["slips"] == 0 and new.completed == list(range(20))
        assert_same_run(new, old)

    def test_long_run_every_frame_at_k_period_plus_latency(self):
        graph, state, cluster = build_tracker_graph(), State(n_models=3), SINGLE_NODE_SMP(4)
        solution = OptimalScheduler(cluster).solve(graph, state)
        new, old = run_both(graph, state, cluster, solution, frames=150)
        assert_same_run(new, old)
        for k in range(150):
            assert new.completion_times[k] == pytest.approx(
                k * solution.period + solution.latency, abs=TOL
            )


class TestBlockingBranches:
    @pytest.mark.parametrize(
        "make_graph,state,cluster",
        [
            (lambda: chain_graph([1.0, 1.0]), State(n_models=1), ClusterSpec(2, 1)),
            (lambda: fork_join_graph(0.2, [0.5, 0.7, 0.3], 0.2), State(n_models=1),
             SINGLE_NODE_SMP(4)),
            (build_tracker_graph, State(n_models=3), ClusterSpec(2, 4)),
        ],
        ids=["chain", "fork_join", "tracker3_2x4"],
    )
    def test_capacity_one_channels_block_puts(self, monkeypatch, make_graph, state, cluster):
        """Every streaming channel holds one item: a producer that finishes
        before the previous frame is consumed waits for the channel's next
        change — the generator ``yield``s it, the callback hangs on it."""
        refused = []
        try_put = ChannelHub.try_put

        def counting(hub, conn, ts, value, size=0):
            ok = try_put(hub, conn, ts, value, size)
            if not ok:
                refused.append((hub.name, ts))
            return ok

        monkeypatch.setattr(ChannelHub, "try_put", counting)
        graph = with_capacity(make_graph(), 1)
        solution = OptimalScheduler(cluster).solve(graph, state)
        new = StaticExecutor(graph, state, cluster, solution).run(FRAMES)
        refused_new, refused[:] = list(refused), []
        old = GeneratorStaticExecutor(graph, state, cluster, solution).run(FRAMES)
        assert refused_new, "no put ever found its channel full"
        assert Counter(refused_new) == Counter(refused)
        assert new.completed == list(range(FRAMES))
        assert_same_run(new, old)

    def test_contention_free_chain(self, m1):
        """``test_fabric``'s chain: one consumer per producer, nothing contends."""
        g = chain_graph([1.0, 1.0], item_bytes=100)
        cluster = ClusterSpec(nodes=2, procs_per_node=1)
        comm = CommModel(
            cluster, inter_node=CommCost(0.5, float("inf")),
            intra_node=CommCost(0.0, float("inf")),
        )
        it = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (1,), 1.5, 1.0)]
        )
        sched = PipelinedSchedule(it, period=2.5, shift=0, n_procs=2)
        new, old = run_both(g, m1, cluster, sched, comm=comm, contended=True)
        assert new.meta["transfers"] == FRAMES and new.meta["contended_time"] == 0.0
        assert_same_run(new, old)

    @pytest.mark.parametrize(
        "branches,shape,contends",
        [
            ([1.0, 1.0], (2, 2), False),   # test_fabric's own instance
            ([1.0, 1.0, 1.0, 0.5], (2, 2), True),
            ([0.5, 0.7, 0.3], (2, 1), True),
            ([1.0] * 6, (2, 4), True),
        ],
    )
    def test_fanin_over_shared_links(self, m8, branches, shape, contends):
        """``test_fabric``'s fan-in: branch results cross the same link at
        the same instant, the transfers serialize and the join slips."""
        g = fork_join_graph(0.0, branches, 0.5, item_bytes=100)
        cluster = ClusterSpec(*shape)
        comm = CommModel(
            cluster,
            intra_node=CommCost(0.0, float("inf")),
            inter_node=CommCost(0.3, float("inf")),
        )
        sol = OptimalScheduler(cluster, comm=comm).solve(g, m8)
        new, old = run_both(g, m8, cluster, sol, comm=comm, contended=True)
        assert new.meta["transfers"] == FRAMES * (2 * len(branches))
        if contends:
            assert new.meta["contended_time"] > 0 and new.meta["slips"] > 0
        assert_same_run(new, old)


class TestObservability:
    def test_same_items_execs_and_transfers_reported(self):
        cluster = ClusterSpec(2, 4)
        graph, state, comm = build_tracker_graph(), State(n_models=4), real_comm(cluster)
        solution = OptimalScheduler(cluster, comm=comm).solve(graph, state)
        obs_new, obs_old = Observability(), Observability()
        new = StaticExecutor(
            graph, state, cluster, solution, comm=comm, obs=obs_new
        ).run(FRAMES)
        old = GeneratorStaticExecutor(
            graph, state, cluster, solution, comm=comm, obs=obs_old
        ).run(FRAMES)
        assert_same_run(new, old)
        reported = lambda obs: Counter(
            (s.cat, s.name, s.timestamp) for s in obs.tracer.spans()
        )
        assert reported(obs_new) == reported(obs_old)
        assert {cat for cat, _n, _ts in reported(obs_new)} >= {"exec", "stm", "comm"}


class TestInvalidSchedules:
    def test_double_booked_schedule_slips_on_both(self, m1):
        """Two placements on one processor at one time: capacity-1
        acquisition makes the second wait, on either body."""
        g = chain_graph([1.0, 1.0])
        it = IterationSchedule(
            [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (0,), 1.0, 1.0)]
        )
        # II = 1 on one processor needs two: t0@k+1 and t1@k collide.
        sched = PipelinedSchedule(it, period=1.0, shift=0, n_procs=1)
        new, old = run_both(g, m1, SINGLE_NODE_SMP(1), sched, frames=6)
        assert new.meta["slips"] > 0 and new.meta["max_slip"] >= 1.0
        assert new.completed == list(range(6))
        assert_same_run(new, old)

    def test_saturated_schedule_contends_in_the_same_order(self):
        """The ``obs`` experiment's stale run: T4 (on all four processors)
        costs 2.5 times what its schedule assumed and the period stays, so
        every frame queues behind the one before.  Who gets a processor
        that several placements want at one instant is decided grant by
        grant — the same way on both bodies, for 60 frames of backlog."""
        from repro.experiments.obs_exp import PERTURBED_TASK, replay_with_state
        from repro.obs import ScaledCost, graph_with_costs

        cluster, state = SINGLE_NODE_SMP(4), State(n_models=2)
        graph = build_tracker_graph()
        sol = OptimalScheduler(cluster).solve(graph, state)
        true = graph_with_costs(
            graph, {PERTURBED_TASK: ScaledCost(graph.task(PERTURBED_TASK).cost, 2.5)}
        )
        stale = PipelinedSchedule(
            replay_with_state(sol.iteration, true, state, cluster),
            period=sol.period, shift=sol.pipelined.shift, n_procs=sol.pipelined.n_procs,
        )
        assert max(len(p.procs) for p in stale.iteration.placements) == 4
        new, old = run_both(true, state, cluster, stale, frames=60)
        assert new.meta["slips"] > 60 and new.completed == list(range(60))
        assert_same_run(new, old)

    def test_schedule_that_cannot_progress_names_blocked_placements(self, m1):
        """``c`` (capacity 1) feeds ``use`` and ``log``, but the schedule
        never runs ``log``: frame 0's item is never collected, frame 1's
        put never lands, and everything behind it is blocked for good."""
        g = TaskGraph("stuck")
        g.add_channel(ChannelSpec("c", capacity=1))
        g.add_task(Task("src", cost=1.0, outputs=["c"]))
        g.add_task(Task("use", cost=1.0, inputs=["c"]))
        g.add_task(Task("log", cost=1.0, inputs=["c"]))
        g.validate()
        it = IterationSchedule(
            [Placement("src", (0,), 0.0, 1.0), Placement("use", (1,), 1.0, 1.0)]
        )
        sched = PipelinedSchedule(it, period=1.0, shift=0, n_procs=2)
        blocked = {}
        for executor in (StaticExecutor, GeneratorStaticExecutor):
            with pytest.raises(SimDeadlock) as exc:
                executor(g, m1, SINGLE_NODE_SMP(2), sched).run(4)
            blocked[executor] = exc.value.blocked
        assert blocked[StaticExecutor] == blocked[GeneratorStaticExecutor]
        assert blocked[StaticExecutor] == [
            "src@1", "use@1", "src@2", "use@2", "src@3", "use@3"
        ]
