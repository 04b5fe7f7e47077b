"""Isolated-call timings of single layers, run after a traced workload.

A probe calls one layer's *public* surface in a tight loop the benchmark
owns, so its number is that layer's cost with nothing else in the way —
the figure a layer-level change is expected to move, next to the budget
line that says how much of the end-to-end total the layer is.  Probes are
informational: nothing here is gated, and wall-clock probes wander with
the host like everything else (each reports the median of a few repeats).

Each group belongs to one workload and runs only in its traced run:

* ``offline_cold`` — the HEFT warm start alone, and the same instance set
  on the ``bounded:0.5`` and ``list`` rungs;
* ``sim_online`` — DES kernel, resources, sim STM, flat dispatch, the
  executor's set-up and marginal per-frame cost, and the other two
  controllers that share the DES (dynamic baseline, fault runner, fleet);
* ``live_threaded`` — the five kernels called serially, ThreadedChannel
  cycles and hand-offs, and the run with an ``Observability`` bundle;
* ``live_process`` — the kernels again (the base of the overhead split)
  and the broker's two payload codecs.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable

import reference
import workloads as wl

__all__ = ["PROBES"]


def _median_of(fn: Callable[[], float], repeats: int = 3) -> float:
    return statistics.median(fn() for _ in range(repeats))


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- offline ------------------------------------------------------------------


def offline_cold_probes(cfg) -> dict[str, float]:
    from repro.core.optimal import OptimalScheduler
    from repro.core.table import ScheduleTable
    from repro.sched.listsched import list_schedule

    items = wl.offline_instances(cfg.seed, cfg.quick)

    def heft() -> float:
        total = 0.0
        for it in items:
            cap = it["cluster"].procs_per_node
            for state in it["space"]:
                total += _timed(lambda: list_schedule(
                    it["graph"], state, it["cluster"], comm=None, max_workers=cap
                ))
        return total

    def rung(policy: str) -> float:
        return sum(
            _timed(lambda: ScheduleTable.build(
                it["graph"], it["space"], OptimalScheduler(it["cluster"]),
                parallel=1, policy=policy,
            ))
            for it in items
        )

    return {
        "sched.listsched.heft_s": _median_of(heft),
        "approx.policy.bounded05_s": _median_of(lambda: rung("bounded:0.5")),
        "approx.policy.list_s": _median_of(lambda: rung("list")),
    }


# -- sim ----------------------------------------------------------------------


def _events_per_s(n: int = 20_000) -> float:
    from repro.sim.engine import Simulator

    def run() -> float:
        sim = Simulator()

        def ticker():
            for _ in range(n):
                yield sim.timeout(0.001)

        sim.process(ticker())
        return n / _timed(sim.run)

    return _median_of(run)


def _acquire_release_us(n: int = 10_000) -> float:
    from repro.sim.engine import Simulator
    from repro.sim.resources import Resource

    def run() -> float:
        sim = Simulator()
        cpu = Resource(sim, capacity=1)

        def worker():
            for _ in range(n):
                grant = yield cpu.request()
                cpu.release(grant)

        sim.process(worker())
        return _timed(sim.run) / n * 1e6

    return _median_of(run)


def _stm_cycle_us(n: int = 5_000) -> float:
    from repro.stm.channel import STMChannel
    from repro.stm.gc import collect_channel

    def run() -> float:
        chan = STMChannel("probe")
        out, inp = chan.attach_output("p"), chan.attach_input("q")
        t0 = time.perf_counter()
        for ts in range(n):
            chan.put(out, ts, ts)
            chan.get(inp, ts)
            chan.consume(inp, ts)
            collect_channel(chan)
        return (time.perf_counter() - t0) / n * 1e6

    return _median_of(run)


def sim_online_probes(cfg) -> dict[str, float]:
    from repro.apps.tracker.graph import build_tracker_graph
    from repro.core.optimal import OptimalScheduler
    from repro.core.transition import DrainTransition
    from repro.experiments.fleet_exp import run_fleet
    from repro.faults.events import FaultPlan
    from repro.faults.runner import FaultRuntime, FaultTolerantExecutor
    from repro.graph.builders import chain_graph
    from repro.runtime.dynamic import DynamicExecutor
    from repro.runtime.static_exec import StaticExecutor
    from repro.sched.online import PthreadScheduler
    from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
    from repro.state import State

    scale = 10 if cfg.quick else 1
    cluster = SINGLE_NODE_SMP(4)
    graph = build_tracker_graph()
    state = State(n_models=3)
    solution = OptimalScheduler(cluster).solve(graph, state)

    def run_frames(n: int) -> float:
        ex = StaticExecutor(graph, state, cluster, solution, runtime="sim")
        return _timed(lambda: ex.run(n))

    setup_ms = _median_of(lambda: _timed(lambda: StaticExecutor(
        graph, state, cluster, solution, runtime="sim").run(1)) * 1e3)
    hi, lo = 2000 // scale, 500 // scale
    frame_us = _median_of(
        lambda: (run_frames(hi) - run_frames(lo)) / (hi - lo) * 1e6
    )

    # The Figure 4 baseline needs a digitizer period: a free-running source
    # floods the unbounded channels and the run goes quadratic in the horizon.
    horizon = 300.0 / scale
    paced = build_tracker_graph(digitizer_period=1.0)
    dynamic_wall = _median_of(lambda: _timed(lambda: DynamicExecutor(
        paced, state, cluster, PthreadScheduler(quantum=0.01)
    ).run(horizon)))

    two_nodes = ClusterSpec(2, 1)
    chain = chain_graph([1.0, 1.0])
    frames = 400 // scale
    plan = FaultPlan.poisson(two_nodes, horizon=2.0 * frames, rate=0.01,
                             seed=cfg.seed)
    fault_ex = FaultTolerantExecutor(
        chain, State(n_models=1), two_nodes,
        FaultRuntime(plan=plan, policy=DrainTransition()),
    )
    t0 = time.perf_counter()
    fault_result = fault_ex.run(frames)
    fault_wall = time.perf_counter() - t0

    fleet = run_fleet(cluster=ClusterSpec(4, 4), wave_sizes=(12 // min(scale, 3), 6),
                      seed=cfg.seed, workers=1, verify=False)

    return {
        "runtime.static_exec.setup_ms": setup_ms,
        "runtime.static_exec.frame_us": frame_us,
        "sim.engine.events_per_s": _events_per_s(20_000 // scale),
        "sim.resources.acquire_release_us": _acquire_release_us(10_000 // scale),
        "stm.channel.cycle_us": _stm_cycle_us(5_000 // scale),
        "runtime.dynamic.sim_s_per_wall_s": horizon / dynamic_wall,
        "faults.runner.frames_per_s": fault_result.completed_count / fault_wall,
        "faults.failover.failovers": float(len(fault_result.meta["failovers"])),
        "fleet.repack.repack_us_mean": fleet.repack_latency_mean_s * 1e6,
        "fleet.repack.repacks": float(fleet.repacks),
    }


# -- live ---------------------------------------------------------------------


def kernel_probes(cfg, frames: int = 150) -> dict[str, float]:
    """Median serial cost of each kernel, and of the five together."""
    video, _graph, _statics = wl.live_inputs(cfg.seed)
    timings: dict[str, list[float]] = {}
    reference.serial_tracker_reference(
        video, wl.N_MODELS, frames // (5 if cfg.quick else 1), timings=timings
    )
    out = {
        f"apps.tracker.kernels.{task.lower()}_ms": statistics.median(ts) * 1e3
        for task, ts in timings.items()
    }
    out["apps.tracker.kernels.frame_ms"] = statistics.median(
        sum(row) for row in zip(*timings.values())
    ) * 1e3
    return out


def _threaded_cycle_us(frame, n: int = 3_000) -> float:
    from repro.stm.threaded import ThreadedChannel

    def run() -> float:
        chan = ThreadedChannel("probe", capacity=wl.CAPACITY)
        out, inp = chan.attach_output("p"), chan.attach_input("q")
        t0 = time.perf_counter()
        for ts in range(n):
            chan.put(out, ts, frame)
            chan.get(inp, ts)
            chan.consume(inp, ts)
        return (time.perf_counter() - t0) / n * 1e6

    return _median_of(run)


def _threaded_handoff_us(frame, n: int = 2_000) -> float:
    """One item across two threads and one back: half the ping-pong time."""
    from repro.stm.threaded import ThreadedChannel

    def run() -> float:
        ping = ThreadedChannel("ping", capacity=1)
        pong = ThreadedChannel("pong", capacity=1)
        ping_out, ping_in = ping.attach_output("a"), ping.attach_input("b")
        pong_out, pong_in = pong.attach_output("b"), pong.attach_input("a")

        def echo() -> None:
            for ts in range(n):
                _ts, value = ping.get(ping_in, ts, timeout=30.0)
                ping.consume(ping_in, ts)
                pong.put(pong_out, ts, value, timeout=30.0)

        peer = threading.Thread(target=echo, daemon=True)
        peer.start()
        t0 = time.perf_counter()
        for ts in range(n):
            ping.put(ping_out, ts, frame, timeout=30.0)
            pong.get(pong_in, ts, timeout=30.0)
            pong.consume(pong_in, ts)
        wall = time.perf_counter() - t0
        peer.join(timeout=30.0)
        return wall / n / 2 * 1e6

    return _median_of(run)


def _window_fps(result) -> float:
    return wl.WINDOW / statistics.median(wl.window_seconds(result.completion_times))


def _obs_overhead_share(cfg, frames: int = 600) -> float:
    """1 - fps(with Observability) / fps(without), same inputs, interleaved."""
    from repro.obs import Observability
    from repro.runtime.static_exec import StaticExecutor
    from repro.sim.cluster import SINGLE_NODE_SMP
    from repro.state import State

    frames = max(3 * wl.WINDOW, frames // (4 if cfg.quick else 1))

    def fps(obs) -> float:
        _video, graph, statics = wl.live_inputs(cfg.seed)
        ex = StaticExecutor(graph, State(n_models=wl.N_MODELS), SINGLE_NODE_SMP(4),
                            wl.serial_schedule(), runtime="threaded",
                            static_inputs=statics, obs=obs)
        return _window_fps(ex.run(frames))

    plain, observed = [], []
    for _ in range(2):
        plain.append(fps(None))
        observed.append(fps(Observability()))
    return 1.0 - statistics.median(observed) / statistics.median(plain)


def live_threaded_probes(cfg) -> dict[str, float]:
    video, _graph, _statics = wl.live_inputs(cfg.seed)
    frame = video.frame(0)
    scale = 5 if cfg.quick else 1
    out = kernel_probes(cfg)
    out["stm.threaded.cycle_us"] = _threaded_cycle_us(frame, 3_000 // scale)
    out["stm.threaded.handoff_us"] = _threaded_handoff_us(frame, 2_000 // scale)
    out["obs.live_overhead_share"] = _obs_overhead_share(cfg)
    return out


def _codec_us(value, ring, n: int) -> float:
    from multiprocessing import shared_memory

    from repro.stm.process import decode_value, encode_value

    segments: set[str] = set()

    def run() -> float:
        t0 = time.perf_counter()
        for ts in range(n):
            encoded = encode_value(value, ring, ts)
            decode_value(encoded)
            if encoded[0] == "shm":
                segments.add(encoded[1])
                ring.release([ts])
        return (time.perf_counter() - t0) / n * 1e6

    try:
        return _median_of(run)
    finally:
        if ring is not None:
            ring.close()
        for name in segments:   # the broker unlinks in a real run; here we do
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()


def live_process_probes(cfg) -> dict[str, float]:
    from repro.stm.process import ShmRing, resolve_shm_threshold

    video, _graph, _statics = wl.live_inputs(cfg.seed)
    frame = video.frame(0)                           # 57.6 KB: the shm path
    locations = [(1, 2, 0.5)] * wl.N_MODELS          # ~100 B: the pickle path
    n = 400 if cfg.quick else 2_000
    out = kernel_probes(cfg)
    out["stm.process.shm_threshold_bytes"] = float(resolve_shm_threshold())
    out["stm.process.codec_shm_us"] = _codec_us(frame, ShmRing(), n)
    out["stm.process.codec_pickle_us"] = _codec_us(locations, None, n)
    return out


PROBES = {
    "offline_cold": offline_cold_probes,
    "offline_warm": lambda cfg: {},
    "sim_online": sim_online_probes,
    "live_threaded": live_threaded_probes,
    "live_process": live_process_probes,
}
