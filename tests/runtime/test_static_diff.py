"""Differential tests: the callback replay vs. the generator body it replaced.

``StaticExecutor.run`` drives every placement as four plain calls on the
DES heap (``Simulator.call_at``) and launches frame *k* at ``k * II``.  The
body it replaced — one generator ``Process`` per placement per frame, all
created at t = 0 — was run on every case below and its results frozen in
``golden_static.json`` (every float as ``float.hex()``; see
``tests/golden.py``) before it was deleted.  The replay must agree with
them on everything a result reports: frames, times (to 1e-9 — ``call_at``
removes the ``now + (t - now)`` round trip, so an ulp may differ), spans,
STM traffic per channel, GC totals, slips and the contended-fabric
accounting.  The blocking branches are covered on purpose: capacity-1
channels (a put waits for the next change) and ``contended=True`` (a
placement waits for a ``LinkFabric.transfer``).
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from pathlib import Path

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

from .. import golden
from .test_sim_world import CASES

TOL = 1e-9
FRAMES = 12
META = ("slips", "contended_time", "transfers", "max_slip")
GOLDEN = golden.load(Path(__file__).with_name("golden_static.json"))


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


def solved(graph, state, cluster, comm=None, frames=FRAMES, **kwargs):
    solution = OptimalScheduler(cluster, comm=comm).solve(graph, state)
    return graph, state, cluster, solution, frames, dict(kwargs, comm=comm)


def sim_world_case(name):
    make_graph, state, cluster = {c[0]: c[1:] for c in CASES}[name]
    return solved(make_graph(), state, cluster)


CLUSTERS = {"smp4": SINGLE_NODE_SMP(4), "2x4": ClusterSpec(2, 4)}


def tracker_comm_case(cluster_id, n_models):
    cluster = CLUSTERS[cluster_id]
    return solved(
        build_tracker_graph(), State(n_models=n_models), cluster, real_comm(cluster)
    )


def random_dag_case(seed):
    """Seeded DAGs (data-parallel variants, fan-in, fan-out) on the schedule
    the solver gives them."""
    rng = random.Random(seed)
    cluster = rng.choice([SINGLE_NODE_SMP(2), SINGLE_NODE_SMP(4), ClusterSpec(2, 2)])
    graph = random_dag(rng.choice([3, 4, 5]), seed, dp_prob=0.4)
    # one cost for every non-local transfer: processors rotate across
    # nodes from one iteration to the next, tiers would change under them
    comm = rng.choice([None, CommModel.uniform(cluster, 0.02, float("inf"))])
    return solved(graph, State(n_models=4), cluster, comm, frames=20)


CAPACITY_ONE = {
    "chain": (lambda: chain_graph([1.0, 1.0]), State(n_models=1), ClusterSpec(2, 1)),
    "fork_join": (
        lambda: fork_join_graph(0.2, [0.5, 0.7, 0.3], 0.2), State(n_models=1),
        SINGLE_NODE_SMP(4),
    ),
    "tracker3_2x4": (build_tracker_graph, State(n_models=3), ClusterSpec(2, 4)),
}


def capacity_one_case(name):
    make_graph, state, cluster = CAPACITY_ONE[name]
    return solved(with_capacity(make_graph(), 1), state, cluster)


def contention_free_case():
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
    return g, State(n_models=1), cluster, sched, FRAMES, dict(comm=comm, contended=True)


FANIN = [
    ([1.0, 1.0], (2, 2), False),   # test_fabric's own instance
    ([1.0, 1.0, 1.0, 0.5], (2, 2), True),
    ([0.5, 0.7, 0.3], (2, 1), True),
    ([1.0] * 6, (2, 4), True),
]


def fanin_key(branches, shape):
    return f"fanin/{'+'.join(map(str, branches))}@{shape[0]}x{shape[1]}"


def fanin_case(branches, shape):
    g = fork_join_graph(0.0, branches, 0.5, item_bytes=100)
    cluster = ClusterSpec(*shape)
    comm = CommModel(
        cluster,
        intra_node=CommCost(0.0, float("inf")),
        inter_node=CommCost(0.3, float("inf")),
    )
    return solved(g, State(n_models=8), cluster, comm, contended=True)


def observability_case():
    cluster = ClusterSpec(2, 4)
    return solved(build_tracker_graph(), State(n_models=4), cluster, real_comm(cluster))


def double_booked_case():
    """Two placements on one processor at one time: II = 1 on one
    processor needs two (t0@k+1 and t1@k collide)."""
    it = IterationSchedule(
        [Placement("t0", (0,), 0.0, 1.0), Placement("t1", (0,), 1.0, 1.0)]
    )
    sched = PipelinedSchedule(it, period=1.0, shift=0, n_procs=1)
    return chain_graph([1.0, 1.0]), State(n_models=1), SINGLE_NODE_SMP(1), sched, 6, {}


def saturated_case():
    """The ``obs`` experiment's stale run: T4 (on all four processors) costs
    2.5 times what its schedule assumed and the period stays."""
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
    return true, state, cluster, stale, 60, {}


def cannot_progress_case():
    """``c`` (capacity 1) feeds ``use`` and ``log``, but the schedule never
    runs ``log``: frame 0's item is never collected, frame 1's put never
    lands, and everything behind it is blocked for good."""
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
    return g, State(n_models=1), SINGLE_NODE_SMP(2), sched, 4, {}


#: Every frozen case: key -> the inputs of one run
#: ``(graph, state, cluster, schedule, frames, executor keyword arguments)``.
GRID = {
    **{f"sim_world/{c[0]}": partial(sim_world_case, c[0]) for c in CASES},
    **{
        f"tracker_comm/{cid}/{n}": partial(tracker_comm_case, cid, n)
        for cid in CLUSTERS
        for n in (1, 4, 8)
    },
    **{f"random_dag/{seed}": partial(random_dag_case, seed) for seed in range(24)},
    "long_run": lambda: solved(
        build_tracker_graph(), State(n_models=3), SINGLE_NODE_SMP(4), frames=150
    ),
    **{f"capacity_one/{name}": partial(capacity_one_case, name) for name in CAPACITY_ONE},
    "contention_free_chain": contention_free_case,
    **{fanin_key(b, s): partial(fanin_case, b, s) for b, s, _c in FANIN},
    "observability": observability_case,
    "double_booked": double_booked_case,
    "saturated": saturated_case,
    "cannot_progress": cannot_progress_case,
}


def run_case(key, **extra):
    """The replay's result on case ``key`` and the frozen generator run."""
    graph, state, cluster, schedule, frames, kwargs = GRID[key]()
    new = StaticExecutor(graph, state, cluster, schedule, **kwargs, **extra).run(frames)
    return new, GOLDEN[key]


def assert_same_run(new, old):
    assert new.completed == old["completed"]
    completion = golden.times(old["completion_times"])
    digitize = golden.times(old["digitize_times"])
    for ts in old["completed"]:
        assert new.completion_times[ts] == pytest.approx(completion[ts], abs=TOL)
    assert sorted(new.digitize_times) == sorted(digitize)
    for ts, t in digitize.items():
        assert new.digitize_times[ts] == pytest.approx(t, abs=TOL)

    frozen = [(p, task, ts, float.fromhex(a), float.fromhex(b))
              for p, task, ts, _pre, a, b in old["spans"]]
    key = lambda s: s[:3]
    spans = sorted((s.proc, s.task, s.timestamp, s.start, s.end) for s in new.trace.spans)
    assert Counter(map(key, spans)) == Counter(map(key, frozen))
    for a, b in zip(spans, frozen):
        assert key(a) == key(b)
        assert a[3] == pytest.approx(b[3], abs=TOL)
        assert a[4] == pytest.approx(b[4], abs=TOL)

    ops = Counter()
    for channel, kind, _task, n in old["ops"]:
        ops[(channel, kind)] += n
    assert Counter((e.channel, e.kind) for e in new.trace.items) == ops
    assert new.gc_collected == old["gc_collected"]
    assert new.live_item_high_water == old["live_item_high_water"]
    for name in META:
        frozen_value = old["meta"][name]
        if isinstance(frozen_value, str):
            frozen_value = float.fromhex(frozen_value)
        assert new.meta[name] == pytest.approx(frozen_value, abs=TOL), name
    assert new.horizon == pytest.approx(float.fromhex(old["horizon"]), abs=TOL)


def test_the_fixture_has_one_entry_per_grid_case():
    assert len(GRID) == 53
    assert sorted(GOLDEN) == sorted(GRID)


class TestSameRunAsTheGeneratorBody:
    @pytest.mark.parametrize("name", [c[0] for c in CASES], ids=[c[0] for c in CASES])
    def test_sim_world_cases(self, name):
        new, old = run_case(f"sim_world/{name}")
        assert new.meta["slips"] == 0
        assert new.completed == list(range(FRAMES))
        assert_same_run(new, old)

    @pytest.mark.parametrize("cluster_id", list(CLUSTERS))
    @pytest.mark.parametrize("n_models", [1, 4, 8])
    def test_tracker_with_communication_costs(self, cluster_id, n_models):
        new, old = run_case(f"tracker_comm/{cluster_id}/{n_models}")
        assert new.meta["slips"] == 0
        assert_same_run(new, old)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_dags_on_their_own_schedules(self, seed):
        """Nothing slips on the solver's own schedule, and then the two
        bodies agree whatever the shape."""
        new, old = run_case(f"random_dag/{seed}")
        assert new.meta["slips"] == 0 and new.completed == list(range(20))
        assert_same_run(new, old)

    def test_long_run_every_frame_at_k_period_plus_latency(self):
        new, old = run_case("long_run")
        assert_same_run(new, old)
        solution = GRID["long_run"]()[3]
        for k in range(150):
            assert new.completion_times[k] == pytest.approx(
                k * solution.period + solution.latency, abs=TOL
            )


class TestBlockingBranches:
    @pytest.mark.parametrize("name", list(CAPACITY_ONE), ids=list(CAPACITY_ONE))
    def test_capacity_one_channels_block_puts(self, monkeypatch, name):
        """Every streaming channel holds one item: a producer that finishes
        before the previous frame is consumed waits for the channel's next
        change — the generator ``yield``ed it, the callback hangs on it —
        and the same puts are refused on both bodies."""
        refused = []
        put = ChannelHub.put

        def counting(hub, conn, ts, value, size=0):
            ok = put(hub, conn, ts, value, size)
            if not ok:
                refused.append((hub.name, ts))
            return ok

        monkeypatch.setattr(ChannelHub, "put", counting)
        new, old = run_case(f"capacity_one/{name}")
        assert refused, "no put ever found its channel full"
        assert Counter(refused) == Counter(
            {(hub, ts): n for hub, ts, n in old["refused"]}
        )
        assert new.completed == list(range(FRAMES))
        assert_same_run(new, old)

    def test_contention_free_chain(self):
        new, old = run_case("contention_free_chain")
        assert new.meta["transfers"] == FRAMES and new.meta["contended_time"] == 0.0
        assert_same_run(new, old)

    @pytest.mark.parametrize("branches,shape,contends", FANIN)
    def test_fanin_over_shared_links(self, branches, shape, contends):
        """``test_fabric``'s fan-in: branch results cross the same link at
        the same instant, the transfers serialize and the join slips."""
        new, old = run_case(fanin_key(branches, shape))
        assert new.meta["transfers"] == FRAMES * (2 * len(branches))
        if contends:
            assert new.meta["contended_time"] > 0 and new.meta["slips"] > 0
        assert_same_run(new, old)


def reported_records(trace):
    """The ``(cat, name, timestamp)`` multiset the frozen body reported to
    its observability bundle, read off the one trace: an execution once
    however many processors ran it, an STM operation as ``kind:channel``,
    a transfer or slip by its mark's name."""
    reported = Counter()
    last = None
    for s in trace.spans:
        key = (s.task, s.timestamp, s.start, s.end)
        if key != last:
            reported["exec", s.task, s.timestamp] += 1
        last = key
    for e in trace.items:
        reported["stm", f"{e.kind}:{e.channel}", e.timestamp] += 1
    for m in trace.marks:
        reported[m.cat, m.name, m.timestamp] += 1
    return reported


class TestObservability:
    def test_same_items_execs_and_transfers_reported(self):
        obs = Observability()
        new, old = run_case("observability", obs=obs)
        assert_same_run(new, old)
        reported = reported_records(new.trace)
        assert reported == Counter(
            {(cat, name, ts): n for cat, name, ts, n in old["reported"]}
        )
        assert {cat for cat, _n, _ts in reported} >= {"exec", "stm", "comm"}


class TestInvalidSchedules:
    def test_double_booked_schedule_slips_on_both(self):
        """Capacity-1 acquisition makes the second placement wait, on
        either body."""
        new, old = run_case("double_booked")
        assert new.meta["slips"] > 0 and new.meta["max_slip"] >= 1.0
        assert new.completed == list(range(6))
        assert_same_run(new, old)

    def test_saturated_schedule_contends_in_the_same_order(self):
        """Every frame queues behind the one before.  Who gets a processor
        that several placements want at one instant is decided grant by
        grant — the same way on both bodies, for 60 frames of backlog."""
        new, old = run_case("saturated")
        assert new.meta["slips"] > 60 and new.completed == list(range(60))
        assert_same_run(new, old)

    def test_schedule_that_cannot_progress_names_blocked_placements(self):
        with pytest.raises(SimDeadlock) as exc:
            run_case("cannot_progress")
        assert exc.value.blocked == GOLDEN["cannot_progress"]["blocked"]
        assert exc.value.blocked == [
            "src@1", "use@1", "src@2", "use@2", "src@3", "use@3"
        ]
