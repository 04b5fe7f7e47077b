"""Cross-substrate conformance: sim, threaded and process runtimes agree.

The same tracker graph and the same schedule run on all three substrates
behind ``StaticExecutor(runtime=...)``; the STM item streams they produce
must be indistinguishable — identical per-channel put/consume/collect
counts, identical completed-frame sets, and (between the live
substrates) identical output values.  The process runtime keeps a
channel inside a worker when all its endpoints are scheduled on one node
and batches what crosses nodes into one broker step per frame — transport
details that must be invisible in the item streams.  Two schedules are
covered: a fully serial placement and a data-parallel one (T4 as ``dp2``
over processors 2 and 3, its chunks in both lanes), so the chunked
execution path is held to the same contract — down to the spans, one per
processor a placement occupies on every substrate; a placement axis then
moves the node boundary through the graph (all on one node, split in two,
one task per node).

The same contract is then applied to every :mod:`repro.workloads`
family (matmul, fusion, webinfer): serial and dp schedules, sim ==
threaded == process item streams, bitwise-identical live outputs.
"""

from __future__ import annotations

import pytest

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State
from repro.workloads import get_family

pytestmark = pytest.mark.slow

N_FRAMES = 4
N_MODELS = 2
SUBSTRATES = ("sim", "threaded", "process")
LIVE = ("threaded", "process")


def _fresh_setup():
    """A new graph + video per run; the kernels keep no frame state, T2
    reads the previous frame through its window-2 input."""
    video = VideoSource(n_targets=N_MODELS, height=48, width=64, seed=23)
    graph = build_tracker_graph(frame_shape=(48, 64))
    live, statics = attach_kernels(graph, video)
    return live, statics


def serial_schedule(graph, state) -> PipelinedSchedule:
    """Every task sequentially on processor 0, starts at cost-model ends."""
    placements, t = [], 0.0
    for name in ("T1", "T2", "T3", "T4", "T5"):
        d = graph.task(name).cost(state)
        placements.append(Placement(name, (0,), t, d))
        t += d
    return PipelinedSchedule(
        IterationSchedule(placements), period=t, shift=0, n_procs=1
    )


def dp_schedule(graph, state) -> PipelinedSchedule:
    """T2/T3 in parallel, T4 as a two-worker data-parallel placement."""
    c = {name: graph.task(name).cost(state) for name in
         ("T1", "T2", "T3", "T4", "T5")}
    t4_start = c["T1"] + max(c["T2"], c["T3"])
    t4_dur = c["T4"] / 2 + 0.05  # two workers + split/join slack
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, c["T1"]),
        Placement("T2", (1,), c["T1"], c["T2"]),
        Placement("T3", (2,), c["T1"], c["T3"]),
        Placement("T4", (2, 3), t4_start, t4_dur, variant="dp2"),
        Placement("T5", (0,), t4_start + t4_dur, c["T5"]),
    ])
    return PipelinedSchedule(
        it, period=t4_start + t4_dur + c["T5"], shift=0, n_procs=4
    )


def run_on(substrate: str, make_schedule) -> object:
    live, statics = _fresh_setup()
    state = State(n_models=N_MODELS)
    sched = make_schedule(live, state)
    ex = StaticExecutor(
        live, state, SINGLE_NODE_SMP(4), sched,
        runtime=substrate, static_inputs=statics,
    )
    return ex.run(N_FRAMES)


@pytest.fixture(scope="module", params=["serial", "dp"])
def runs(request):
    make = serial_schedule if request.param == "serial" else dp_schedule
    return request.param, {sub: run_on(sub, make) for sub in SUBSTRATES}


def streaming_channels(result):
    g = result.graph
    return [
        spec.name for spec in g.channels
        if not spec.static and g.producers(spec.name)
    ]


def item_counts(result) -> dict[str, dict[str, int]]:
    """Per-streaming-channel put/consume counts, any substrate.

    The sim trace records put/get/consume item events but not GC sweeps,
    so "collected" is compared separately (live substrates against each
    other, and totals via ``gc_collected`` across all three).
    """
    chans = streaming_channels(result)
    if result.meta.get("substrate") in ("threaded", "process"):
        stats = result.meta["channel_stats"]
        return {
            ch: {k: stats[ch][k] for k in ("puts", "consumed")} for ch in chans
        }
    counts = {ch: {"puts": 0, "consumed": 0} for ch in chans}
    keymap = {"put": "puts", "consume": "consumed"}
    for ev in result.trace.items:
        if ev.channel in counts and ev.kind in keymap:
            counts[ev.channel][keymap[ev.kind]] += 1
    return counts


def span_labels(result) -> list[tuple]:
    """Sorted ``(task, timestamp, proc, variant)`` of a run's spans."""
    return sorted((s.task, s.timestamp, s.proc, s.variant)
                  for s in result.trace.spans)


class TestItemStreams:
    def test_per_channel_counts_identical(self, runs):
        _, results = runs
        reference = item_counts(results["sim"])
        for sub in LIVE:
            assert item_counts(results[sub]) == reference, sub

    def test_live_channel_stats_identical(self, runs):
        """All live runs see the same full counter set, so batching ops
        into step messages provably changes no put/get/consume/collect."""
        _, results = runs
        t_stats = results["threaded"].meta["channel_stats"]
        for sub in ("process",):
            p_stats = results[sub].meta["channel_stats"]
            for ch in streaming_channels(results["threaded"]):
                assert t_stats[ch] == p_stats[ch], (sub, ch)

    def test_every_frame_completes_everywhere(self, runs):
        _, results = runs
        for sub, res in results.items():
            assert res.completed == list(range(N_FRAMES)), sub
            assert set(res.digitize_times) == set(range(N_FRAMES)), sub

    def test_live_substrates_agree_on_values(self, runs):
        _, results = runs
        t_locs = results["threaded"].meta["outputs"]["model_locations"]
        for sub in ("process",):
            p_locs = results[sub].meta["outputs"]["model_locations"]
            for ts in range(N_FRAMES):
                assert t_locs[ts] == p_locs[ts], (sub, ts)

    def test_gc_reclaims_equally(self, runs):
        _, results = runs
        collected = {sub: res.gc_collected for sub, res in results.items()}
        assert len(set(collected.values())) == 1, collected

    def test_one_span_per_kernel_execution_everywhere(self, runs):
        """Every substrate records each kernel execution as one span per
        processor it occupies — two for the ``dp2`` T4, on distinct
        processors — and the live spans equal the DES's."""
        which, results = runs
        width = {"T4": 2} if which == "dp" else {}
        expected = sorted((task, ts) for task in TASKS
                          for ts in range(N_FRAMES)
                          for _ in range(width.get(task, 1)))
        reference = span_labels(results["sim"])
        assert [(t, ts) for t, ts, _, _ in reference] == expected
        assert len(set(reference)) == len(reference)
        for sub in LIVE:
            assert span_labels(results[sub]) == reference, sub


class TestLatencyInvariants:
    def test_sim_replays_with_zero_slips(self, runs):
        _, results = runs
        assert results["sim"].meta["slips"] == 0

    def test_live_latencies_positive_and_ordered(self, runs):
        _, results = runs
        for sub in LIVE:
            res = results[sub]
            for ts in res.completed:
                assert res.completion_times[ts] >= res.digitize_times[ts], (sub, ts)
                assert res.latency(ts) >= 0.0, (sub, ts)

    def test_dp_plan_reaches_process_runtime(self, runs):
        """The process runtime runs T4 as the schedule places it: ``dp2``
        over processors 2 and 3, or serially on processor 0."""
        which, results = runs
        t4 = sorted({(s.proc, s.variant) for s in results["process"].trace.spans
                     if s.task == "T4"})
        sim_t4 = sorted({(s.proc, s.variant) for s in results["sim"].trace.spans
                         if s.task == "T4"})
        if which == "dp":
            assert t4 == [(2, "dp2"), (3, "dp2")]
        else:
            assert [p for p, _ in t4] == [0]
        assert t4 == sim_t4


# ---------------------------------------------------------------------------
# The placement axis: where the node boundary falls must not show
# ---------------------------------------------------------------------------

TASKS = ("T1", "T2", "T3", "T4", "T5")
#: task -> node; with one processor a node, also task -> processor
PLACEMENTS = {
    "one-node": dict.fromkeys(TASKS, 0),
    "two-nodes": {"T1": 0, "T2": 0, "T3": 0, "T4": 1, "T5": 1},
    "node-per-task": {name: i for i, name in enumerate(TASKS)},
}
#: what the process substrate must keep inside its workers on each
NODE_LOCAL = {
    "one-node": ["back_projections", "frame", "histogram", "model_locations",
                 "motion_mask"],
    "two-nodes": ["back_projections", "model_locations"],
    "node-per-task": ["model_locations"],
}


def placed_schedule(nodes: dict[str, int]):
    """One task after the other, each on its node's processor, with a
    second between them for the simulated inter-node transfers."""
    def make(graph, state) -> PipelinedSchedule:
        placements, t = [], 0.0
        for name in TASKS:
            d = graph.task(name).cost(state)
            placements.append(Placement(name, (nodes[name],), t, d))
            t += d + 1.0
        return PipelinedSchedule(
            IterationSchedule(placements), period=t, shift=0,
            n_procs=len(TASKS),
        )
    return make


@pytest.fixture(scope="module", params=list(PLACEMENTS))
def placed_runs(request):
    cluster = ClusterSpec(nodes=len(TASKS), procs_per_node=1)
    make = placed_schedule(PLACEMENTS[request.param])
    results = {}
    for sub in SUBSTRATES:
        live, statics = _fresh_setup()
        state = State(n_models=N_MODELS)
        results[sub] = StaticExecutor(
            live, state, cluster, make(live, state),
            runtime=sub, static_inputs=statics,
        ).run(N_FRAMES)
    return request.param, results


class TestPlacementAxis:
    def test_locality_follows_the_schedule(self, placed_runs):
        which, results = placed_runs
        meta = results["process"].meta
        assert meta["node_local_channels"] == NODE_LOCAL[which]
        assert meta["nodes"] == sorted(set(PLACEMENTS[which].values()))

    def test_item_streams_identical(self, placed_runs):
        _, results = placed_runs
        reference = item_counts(results["sim"])
        for sub in LIVE:
            assert item_counts(results[sub]) == reference, sub

    def test_live_channel_stats_identical(self, placed_runs):
        """put / get / consume / collected, channel by channel — node-local
        channels report through the worker's done message, boundary ones
        through the broker, and the sum is the threaded run's."""
        _, results = placed_runs
        t_stats = results["threaded"].meta["channel_stats"]
        p_stats = results["process"].meta["channel_stats"]
        assert set(p_stats) == set(t_stats)
        for ch in streaming_channels(results["threaded"]):
            assert t_stats[ch] == p_stats[ch], ch

    def test_terminal_outputs_bitwise_equal(self, placed_runs):
        _, results = placed_runs
        t_locs = results["threaded"].meta["outputs"]["model_locations"]
        p_locs = results["process"].meta["outputs"]["model_locations"]
        for ts in range(N_FRAMES):
            assert t_locs[ts] == p_locs[ts], ts

    def test_every_frame_completes_and_is_stamped(self, placed_runs):
        _, results = placed_runs
        for sub, res in results.items():
            assert res.completed == list(range(N_FRAMES)), sub
            assert set(res.digitize_times) == set(range(N_FRAMES)), sub
        live = results["process"]
        for ts in live.completed:
            assert live.completion_times[ts] >= live.digitize_times[ts]

    def test_gc_reclaims_equally(self, placed_runs):
        _, results = placed_runs
        collected = {sub: res.gc_collected for sub, res in results.items()}
        assert len(set(collected.values())) == 1, collected


# ---------------------------------------------------------------------------
# The same contract for every workload family (repro.workloads)
# ---------------------------------------------------------------------------

WORKLOAD_FAMILIES = ("matmul", "fusion", "webinfer")
WL_FRAMES = 3
WL_SUBSTRATES = ("sim", "threaded", "process")


def _wl_serial_schedule(graph, state, cluster) -> PipelinedSchedule:
    """Every task sequentially on processor 0 (node 0), topo order."""
    speed = cluster.node_speeds[0]
    placements, t = [], 0.0
    for name in graph.topo_order():
        d = graph.task(name).cost(state) / speed
        placements.append(Placement(name, (0,), t, d))
        t += d
    period = max(t, _wl_source_period(graph) or 0.0)
    return PipelinedSchedule(
        IterationSchedule(placements), period=period, shift=0, n_procs=1
    )


def _wl_dp_schedule(graph, state, cluster, dp_task) -> PipelinedSchedule:
    """Serial chain except the family's dp task runs as ``dp2`` on (0, 1)."""
    speed = cluster.node_speeds[0]
    placements, t = [], 0.0
    for name in graph.topo_order():
        task = graph.task(name)
        if name == dp_task:
            d = task.data_parallel.duration(task, state, 2) / speed
            placements.append(Placement(name, (0, 1), t, d, variant="dp2"))
        else:
            d = task.cost(state) / speed
            placements.append(Placement(name, (0,), t, d))
        t += d
    period = max(t, _wl_source_period(graph) or 0.0)
    return PipelinedSchedule(
        IterationSchedule(placements), period=period, shift=0, n_procs=2
    )


def _wl_source_period(graph):
    for name in graph.source_tasks():
        if graph.task(name).period is not None:
            return graph.task(name).period
    return None


def wl_run_on(family_name: str, substrate: str, kind: str):
    """One fresh end-to-end run: new live graph + kernels per substrate."""
    fam = get_family(family_name)
    inst = fam.generate(0)
    cluster = fam.cluster(inst)
    state = list(fam.state_space(inst))[-1]  # densest regime: dp chunks > 1
    graph = fam.build_graph(inst)
    live, statics = fam.attach_kernels(graph, inst)
    if kind == "serial":
        sched = _wl_serial_schedule(live, state, cluster)
    else:
        sched = _wl_dp_schedule(live, state, cluster, fam.dp_task)
    ex = StaticExecutor(
        live, state, cluster, sched, runtime=substrate, static_inputs=statics
    )
    return ex.run(WL_FRAMES)


@pytest.fixture(
    scope="module",
    params=[(f, k) for f in WORKLOAD_FAMILIES for k in ("serial", "dp")],
    ids=[f"{f}-{k}" for f in WORKLOAD_FAMILIES for k in ("serial", "dp")],
)
def wl_runs(request):
    family, kind = request.param
    return family, kind, {
        sub: wl_run_on(family, sub, kind) for sub in WL_SUBSTRATES
    }


class TestWorkloadConformance:
    """sim == threaded == process for matmul, fusion and webinfer."""

    def test_item_streams_identical(self, wl_runs):
        _, _, results = wl_runs
        reference = item_counts(results["sim"])
        for sub in ("threaded", "process"):
            assert item_counts(results[sub]) == reference, sub

    def test_every_frame_completes_everywhere(self, wl_runs):
        _, _, results = wl_runs
        for sub, res in results.items():
            assert res.completed == list(range(WL_FRAMES)), sub

    def test_live_outputs_bitwise_identical(self, wl_runs):
        """threaded and process produce equal values on every terminal
        channel at every timestamp — the integer-exact kernel contract."""
        _, _, results = wl_runs
        t_out = results["threaded"].meta["outputs"]
        p_out = results["process"].meta["outputs"]
        assert set(t_out) == set(p_out)
        assert t_out, "no terminal channels collected"
        for ch in t_out:
            for ts in range(WL_FRAMES):
                assert t_out[ch][ts] == p_out[ch][ts], (ch, ts)

    def test_live_stats_identical(self, wl_runs):
        _, _, results = wl_runs
        t_stats = results["threaded"].meta["channel_stats"]
        p_stats = results["process"].meta["channel_stats"]
        for ch in streaming_channels(results["threaded"]):
            assert t_stats[ch] == p_stats[ch], ch

    def test_spans_equal_on_every_substrate(self, wl_runs):
        family, kind, results = wl_runs
        reference = span_labels(results["sim"])
        if kind == "dp":
            dp_task = get_family(family).dp_task
            assert [(p, v) for t, ts, p, v in reference
                    if t == dp_task and ts == 0] == [(0, "dp2"), (1, "dp2")]
        for sub in ("threaded", "process"):
            assert span_labels(results[sub]) == reference, sub

    def test_gc_reclaims_equally(self, wl_runs):
        _, _, results = wl_runs
        collected = {sub: res.gc_collected for sub, res in results.items()}
        assert len(set(collected.values())) == 1, collected
