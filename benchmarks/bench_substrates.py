"""Micro-benchmarks for the substrates: DES engine, STM, kernels.

Not a paper figure — these establish that the simulation substrate is fast
enough for the experiment scales the figures use, and give a baseline for
profiling regressions (the guides' "no optimization without measuring").

The scaling ladder at the end races the threaded runtime against the
process runtime across 1/2/4(/8)-worker data-parallel tracker schedules,
and the round-trip test pins the broker messages per frame of the
process substrate's one-step-per-frame protocol; both emit into the
``BENCH_substrates.json`` summary next to this file.  Wall-clock speedup assertions only fire on
rungs the host can actually parallelize (``cpus >= workers``); a
single-CPU container reports its honest <= 1x numbers instead of failing
and marks the summary with ``"skipped": "insufficient_cores"`` so
artifact consumers never mistake an unasserted run for a passing one.
The round-trip assertion runs everywhere — message counts don't depend
on core count.  ``REPRO_BENCH_QUICK=1`` shrinks the frame
count for CI, and ``trajectory.py`` strings successive summaries into a
regression-gated history.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from _schema import usable_cpus, write_bench
from repro.apps.colormodel import color_histogram
from repro.apps.tracker import kernels
from repro.apps.video import VideoSource
from repro.sim.engine import Simulator
from repro.stm.channel import STMChannel
from repro.stm.gc import collect_channel

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS: dict = {"quick": QUICK}


def test_event_throughput(benchmark):
    """Fire 10k chained heap calls, each arming the next 1 ms on."""

    def run():
        sim = Simulator()

        def tick(left):
            if left:
                sim.call_at(sim.now + 0.001, tick, left - 1)

        sim.call_at(0.0, tick, 10_000)
        sim.run()
        return sim.now

    now = benchmark.pedantic(run, rounds=3, iterations=1)
    assert now == pytest.approx(10.0)


def test_stm_put_get_consume_cycle(benchmark):
    """One full STM item lifecycle x 1000, including GC."""

    def run():
        chan = STMChannel("bench")
        out = chan.attach_output("p")
        inp = chan.attach_input("q")
        for ts in range(1000):
            chan.put(out, ts, ts)
            chan.get(inp, ts)
            chan.consume(inp, ts)
            collect_channel(chan)
        return chan.total_collected

    collected = benchmark.pedantic(run, rounds=3, iterations=1)
    assert collected == 1000


def test_target_detection_kernel(benchmark):
    """The real T4 kernel on a 120x160 frame with 8 models."""
    video = VideoSource(n_targets=8, height=120, width=160, seed=0)
    frame = video.frame(0)
    models = [color_histogram(video.model_patch(i)) for i in range(8)]
    fh = kernels.frame_histogram(frame)
    mask = kernels.change_detection(frame, video.frame(1))

    planes = benchmark(kernels.target_detection, frame, models, fh, mask)
    assert planes.shape == (8, 120, 160)


def test_change_detection_kernel(benchmark):
    video = VideoSource(n_targets=1, height=120, width=160, seed=0)
    a, b = video.frame(0), video.frame(1)
    mask = benchmark(kernels.change_detection, a, b)
    assert mask.dtype == bool


def test_histogram_kernel(benchmark):
    frame = VideoSource(n_targets=1, height=120, width=160, seed=0).frame(0)
    h = benchmark(kernels.frame_histogram, frame)
    assert h.sum() == pytest.approx(1.0)


@pytest.fixture(scope="module", autouse=True)
def _emit_summary():
    yield
    if "substrates" in RESULTS:
        out = write_bench(
            "substrates", RESULTS, Path(__file__).with_name("BENCH_substrates.json")
        )
        print(f"\nsummary written to {out}")


def _tracker_dp_schedule(width: int):
    """T4 fanned over ``width`` workers, the other tasks on procs 0-2."""
    from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement

    t4 = Placement("T4", tuple(range(width)), 0.122, 2.0,
                   variant=f"dp{width}" if width > 1 else "serial")
    it = IterationSchedule([
        Placement("T1", (0,), 0.0, 0.002),
        Placement("T2", (1,), 0.002, 0.120),
        Placement("T3", (2,), 0.002, 0.080),
        t4,
        Placement("T5", (0,), 2.122, 0.07),
    ])
    return PipelinedSchedule(it, period=2.2, shift=0,
                             n_procs=max(4, width))


def test_substrate_scaling_ladder():
    """Threaded vs. process substrate across a 1/2/4(/8)-worker ladder.

    Each rung fans T4 over ``w`` workers; on the process substrate the
    chunks execute on a real process pool, so with enough cores the dp4
    rung must beat the GIL-serialized threaded runtime by > 1.5x
    wall-clock.  T4's compute is scaled (``t4_work_scale``) so its
    cost/byte ratio matches the paper's Table 1 hardware — vanilla
    vectorized NumPy finishes the scan in ~1 ms, where transport overhead
    would measure nothing.  The 8-worker rung only runs on hosts with
    >= 8 usable cores, and speedup is asserted only for rungs the host
    can actually run in parallel (``cpus >= workers``); smaller hosts
    report their honest numbers with ``"skipped": "insufficient_cores"``.
    """
    from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
    from repro.runtime.static_exec import StaticExecutor
    from repro.sim.cluster import SINGLE_NODE_SMP
    from repro.state import State

    frames = 4 if QUICK else 10
    n_models = 6
    work_scale = 250 if QUICK else 400  # ~0.35s / ~0.55s serial T4 per frame
    cpus = usable_cpus()
    rungs = [1, 2, 4, 8]

    def run_once(substrate: str, width: int) -> tuple[dict, dict]:
        video = VideoSource(n_targets=n_models, height=120, width=160, seed=42)
        live, statics = attach_kernels(build_tracker_graph(), video,
                                       t4_work_scale=work_scale)
        ex = StaticExecutor(
            live, State(n_models=n_models), SINGLE_NODE_SMP(max(4, width)),
            _tracker_dp_schedule(width), runtime=substrate,
            static_inputs=statics,
        )
        t0 = time.perf_counter()
        result = ex.run(frames)
        wall = time.perf_counter() - t0
        assert result.completed_count == frames
        latencies = [result.latency(ts) for ts in result.completed]
        row = {
            "wall_s": wall,
            "runtime_wall_s": result.meta["wall_time"],
            "mean_frame_latency_s": sum(latencies) / len(latencies),
        }
        if substrate == "process":
            row["broker_roundtrips"] = result.meta["broker_roundtrips"]
            row["broker_ops"] = result.meta["broker_ops"]
        return row, result.meta["outputs"]["model_locations"]

    # One GIL-serialized baseline: thread wall time is width-insensitive.
    threaded, t_out = run_once("threaded", 4)
    ladder: dict[int, dict] = {}
    for width in rungs:
        if width > 4 and cpus < width:
            # Not even worth running: record the gap explicitly so the
            # CI step summary counts this rung as skipped instead of the
            # ladder silently shrinking on small hosts.
            ladder[width] = {"asserted": False, "skipped": "insufficient_cores"}
            print(f"\n  dp{width} on {cpus} cpu(s): skipped (insufficient cores)")
            continue
        row, p_out = run_once("process", width)
        for ts in range(frames):  # same schedule family, same answers
            assert t_out[ts] == p_out[ts], (width, ts)
        row["speedup_over_threaded"] = (
            threaded["runtime_wall_s"] / row["runtime_wall_s"]
        )
        row["asserted"] = width >= 4 and cpus >= width
        # Rungs meant to assert (>= 4 workers) that the host cannot
        # parallelize report their honest numbers but carry the reason.
        row["skipped"] = (
            "insufficient_cores" if width >= 4 and cpus < width else None
        )
        ladder[width] = row
        print(
            f"\n  dp{width} on {cpus} cpu(s): "
            f"threaded={threaded['runtime_wall_s']:.2f}s "
            f"process={row['runtime_wall_s']:.2f}s "
            f"speedup={row['speedup_over_threaded']:.2f}x "
            f"roundtrips={row['broker_roundtrips']}"
        )

    ran = [w for w, row in ladder.items() if "speedup_over_threaded" in row]
    RESULTS["substrates"] = {
        "frames": frames,
        "n_models": n_models,
        "t4_work_scale": work_scale,
        "cpus": cpus,
        "threaded": threaded,
        "ladder": {str(w): row for w, row in ladder.items()},
        "speedup_process_over_threaded":
            ladder[max(ran)]["speedup_over_threaded"],
        "skipped": None if cpus >= 4 else "insufficient_cores",
    }
    for width, row in ladder.items():
        if row["asserted"]:
            assert row["speedup_over_threaded"] > 1.5, (
                f"process substrate only {row['speedup_over_threaded']:.2f}x "
                f"over threaded at dp{width} on {cpus} cores"
            )


def test_broker_roundtrips_per_frame():
    """Marginal broker round trips per frame on the process substrate.

    Runs the real tracker graph at work_scale=1 (transport-dominated)
    for 4 and 8 frames; the *marginal* rate ``(rt(8) - rt(4)) / 4``
    excludes one-time costs (static gets, the final flush), so it is the
    steady-state queue crossings per frame.  A channel whose every
    endpoint is scheduled on one node stays inside that node's worker, and
    a terminal channel is collected on its producers' node, so the rate is
    exactly the number of tasks that own a channel the broker hosts: 0 on
    one node (only T4's one static read crosses, a fixed cost), 4 on the
    two-node split below (``back_projections`` and ``model_locations``
    stay on node 1, so T5 owns no boundary channel) — on any host, CPU
    count is irrelevant to message counts.  (The parent collecting the
    terminal channel measured 1.0 and 5.0; every channel at the broker
    5.0 on one node; the per-op protocol before it 17.0.)
    """
    from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
    from repro.runtime.process import ProcessRuntime
    from repro.state import State

    n_models = 2
    # the one-node row is keyed "coalesced" so the committed
    # BENCH_trajectory.json baseline keeps gating this number
    placements = {
        "coalesced": None,
        "two_nodes": {"T1": 0, "T2": 0, "T3": 0, "T4": 1, "T5": 1},
    }
    expected = {"coalesced": 0.0, "two_nodes": 4.0}
    rows: dict[str, dict] = {}
    for label, placement in placements.items():
        per_frames: dict[int, int] = {}
        ops: dict[int, dict] = {}
        for frames in (4, 8):
            video = VideoSource(n_targets=n_models, height=48, width=64,
                                seed=23)
            live, statics = attach_kernels(
                build_tracker_graph(frame_shape=(48, 64)), video
            )
            res = ProcessRuntime(live, State(n_models=n_models),
                                 static_inputs=statics,
                                 placement=placement).run(frames)
            per_frames[frames] = res.meta["broker_roundtrips"]
            ops[frames] = res.meta["broker_ops"]
        rows[label] = {
            "roundtrips": {str(f): n for f, n in per_frames.items()},
            "ops_at_8_frames": ops[8],
            "node_local_channels": res.meta["node_local_channels"],
            "marginal_roundtrips_per_frame":
                (per_frames[8] - per_frames[4]) / 4,
        }
    RESULTS["broker_roundtrips"] = rows
    for label, row in rows.items():
        marginal = row["marginal_roundtrips_per_frame"]
        print(f"\n  per-frame round trips, {label}: {marginal:.1f}")
        assert marginal == expected[label], (
            f"{marginal:.2f} broker round trips per frame on {label} "
            f"(need exactly {expected[label]})"
        )


def test_dynamic_executor_simulation_rate(benchmark, tracker_graph, smp4, m8):
    """Simulated-seconds-per-wall-second of the dynamic executor."""
    from repro.runtime.dynamic import DynamicExecutor
    from repro.sched.handtuned import with_source_period
    from repro.sched.online import PthreadScheduler

    tuned = with_source_period(tracker_graph, 1.0)

    def run():
        return DynamicExecutor(
            tuned, m8, smp4, PthreadScheduler(quantum=0.01)
        ).run(horizon=30.0)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.emitted >= 29
