"""The five workloads: seeded inputs, set-up, timed region, raw samples.

Every workload is one function ``(cfg, rec) -> dict`` run in a fresh child
of ``run.py``.  It builds its inputs from ``cfg.seed`` — the child's own
sub-seed; the program under test only ever sees generated inputs — returns
from set-up by calling ``cfg.start_timed()``, does a *fixed* amount of work
— ``cfg.units`` passes, rounds or frames, never "as much as fits" — and
hands back raw samples: the wall seconds of every unit under
``units[unit id]``, how much work a unit is (states, frames) under
``work[unit id]``, and per-item latencies.  At unit boundaries, outside
the units' stopwatches, it calls ``cfg.tick()``: a reading of the
host-speed reference (``hostclock.py``).  The parent reduces the samples
(``run.py``); a single stopwatch around a run is not a steady number on a
shared host, the fast end of many short units over the host's speed is.

Units per workload:

* ``offline_cold`` / ``offline_warm`` — one table build (+ serialize) of
  one instance; the unit id is the instance, one sample a pass;
* ``sim_online`` — one round: ten seeded minutes at the kiosk, observed,
  switched and replayed on the DES; the unit id is the round number (five
  distinct rounds, run in turn);
* ``live_threaded`` / ``live_process`` — one window of ``WINDOW``
  consecutive frame completions inside one of the ``run()`` calls.

Correctness is checked after the timed region, by ``reference.py``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
import time
from typing import Any

import reference
from repro.apps.kiosk import KioskEnvironment
from repro.apps.tracker.graph import (
    TRACKER_STATES,
    attach_kernels,
    build_tracker_graph,
)
from repro.apps.video import VideoSource
from repro.approx.lazy import LazyScheduleTable
from repro.core.cache import ScheduleCache
from repro.core.optimal import OptimalScheduler
from repro.core.regime import RegimeDetector
from repro.core.schedule import IterationSchedule, PipelinedSchedule, Placement
from repro.core.serialize import table_to_json
from repro.core.table import RegimeSwitcher, ScheduleTable
from repro.core.transition import DrainTransition
from repro.errors import ReproError
from repro.graph.builders import random_dag
from repro.graph.taskgraph import TaskGraph
from repro.runtime.static_exec import StaticExecutor
from repro.sim.cluster import SINGLE_NODE_SMP, ClusterSpec
from repro.state import State, StateSpace
from repro.workloads import get_family

__all__ = ["WORKLOADS", "offline_instances", "live_inputs", "serial_schedule",
           "window_seconds"]

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# -- offline instance set -----------------------------------------------------
#
# Regime-space sizes each family's generator can draw.  The instance set
# takes one instance per size (the first generator seed >= 100*seed that
# yields it), so every seed builds the same number of states and the
# per-seed work differs only through the drawn costs — the un-stratified
# draw moved states_per_s by +-25 % from seed to seed.  A pass is kept to
# ~2.2 s so that a child runs it twice; every child of a run draws its own
# set (``run.py`` hands each child its own sub-seed), so a run times three
# sets and the seed-to-seed spread of the drawn costs (5 % of a pass for
# one set) is averaged over them.
FAMILY_STRATA = {"matmul": (4, 5, 6), "fusion": (3, 4), "webinfer": (4, 6, 8)}
DAG_TASKS, DAG_COUNT = 5, 8
# random_dag(6|7|8) are left out on purpose: one 8-task search takes 0.14 s
# to 7.0 s depending on the seed (6-task: 0.02-0.32 s), so a handful of
# them decide the whole number.


def offline_instances(seed: int, quick: bool = False) -> list[dict]:
    """The seeded instance set: ``[{name, graph, space, cluster, instance}]``."""
    tracker = build_tracker_graph()
    out = [dict(name="tracker@smp4", graph=tracker, space=TRACKER_STATES,
                cluster=SINGLE_NODE_SMP(4), instance=None)]
    if not quick:
        out.insert(0, dict(name="tracker@2x4", graph=tracker,
                           space=TRACKER_STATES, cluster=ClusterSpec(2, 4),
                           instance=None))
    for fname, sizes in FAMILY_STRATA.items():
        family = get_family(fname)
        want = set(sizes[:1] if quick else sizes)
        gen_seed = 100 * seed
        while want:
            inst = family.generate(gen_seed)
            gen_seed += 1
            size = len(family.state_space(inst))
            if size in want:
                want.remove(size)
                out.append(dict(name=inst.name, graph=family.build_graph(inst),
                                space=family.state_space(inst),
                                cluster=family.cluster(inst), instance=inst))
    for i in range(2 if quick else DAG_COUNT):
        dag_seed = 100 * seed + i
        out.append(dict(name=f"dag{DAG_TASKS}-s{dag_seed}",
                        graph=random_dag(DAG_TASKS, dag_seed, dp_prob=0.3),
                        space=StateSpace([State(n_models=4)]),
                        cluster=ClusterSpec(2, 4), instance=None))
    return out


def install_offline_spans(rec) -> None:
    """Wrap the off-line layers' public functions (no-op when tracing is off)."""
    if not rec.enabled:
        return
    import repro.analysis as analysis
    import repro.core.cache as cache_mod
    import repro.core.parallel as parallel_mod
    import repro.core.serialize as serialize_mod

    def search_counts(rec, result, *args, **kwargs):
        rec.count("core.enumerate.explored", result.explored)
        rec.count("core.enumerate.pruned_bound", result.pruned_bound)
        rec.count("core.enumerate.pruned_dominance", result.pruned_dominance)
        rec.count("core.enumerate.optimal_set_size", result.optimal_count)

    def pipeline_counts(rec, result, enumeration, *args, **kwargs):
        rec.count("core.pipeline.candidates", len(enumeration.schedules))

    def state_of_request(self, graph, state, *args, **kwargs):
        return f"{graph.name}:{state!r}"

    rec.wrap(OptimalScheduler, "request", "core.parallel.request",
             trace_of=state_of_request)
    rec.wrap(parallel_mod, "solve_many", "core.parallel.solve_many")
    rec.wrap(parallel_mod, "search_schedules", "core.enumerate.search",
             trace_of=lambda problem, state, *a, **k:
             f"{problem.graph_name}:{state!r}",
             on_result=search_counts)
    rec.wrap(parallel_mod, "solution_from_enumeration",
             "core.pipeline.best_pipelined", on_result=pipeline_counts)
    rec.wrap(ScheduleCache, "fetch", "core.cache.fetch")
    rec.wrap(ScheduleCache, "store", "core.cache.store")
    rec.wrap(cache_mod, "request_digest", "core.cache.digest")
    rec.wrap(serialize_mod, "solution_from_dict", "core.serialize.load")
    rec.wrap(serialize_mod, "solution_to_dict", "core.serialize.dump")
    rec.wrap(analysis, "lint_graph", "analysis.graphlint.lint")
    rec.wrap(analysis, "verify_schedule_table", "analysis.schedverify.verify")
    rec.wrap(analysis, "check_stm", "analysis.stmcheck.check")
    rec.wrap(analysis, "check_model", "analysis.model.check")


def _build_and_dump(item: dict, rec, cache=None) -> tuple[Any, str]:
    """The off-line path for one instance: build + verify, then serialize."""
    with rec.span("core.table.build", item["name"]):
        table = ScheduleTable.build(
            item["graph"], item["space"], OptimalScheduler(item["cluster"]),
            parallel=1, cache=cache, verify=True,
        )
    with rec.span("core.serialize.dump", item["name"]):
        text = table_to_json(table)
    return table, text


def _offline_result(items, times, tables, texts, errors, passes) -> dict:
    states = {it["name"]: len(it["space"]) for it in items}
    failures = list(errors)
    failed_states = sum(states[name] for name, _ in errors)
    for it in items:
        name = it["name"]
        if name in tables:
            bad = reference.recertify_table(it, tables[name])
            if bad:
                failures.append((name, bad))
                failed_states += states[name]
    digest = hashlib.sha256(
        "".join(texts.get(it["name"], "") for it in items).encode()
    ).hexdigest()
    return dict(
        units=times,
        work=states,
        # The paper's own table (the tracker's, first in the instance set):
        # the one instance every seed shares, so its build time compares
        # across seeds; a median over the set sat between two cost clusters
        # and moved 23 % with the seed.
        latency_s=[[t] for t in times[items[0]["name"]]],
        attempted=sum(states.values()) * passes,
        failed=failed_states,
        failures=[f"{name}: {what}" for name, what in failures],
        counts={"passes": passes, "states_per_pass": sum(states.values()),
                "table_bytes": sum(len(t) for t in texts.values())},
        table_digest=digest,
    )


def offline_cold(cfg, rec) -> dict:
    """Solve, pipeline, verify and serialize every table, no cache."""
    install_offline_spans(rec)
    items = offline_instances(cfg.seed, cfg.quick)
    times: dict[str, list[float]] = {it["name"]: [] for it in items}
    tables, texts, errors = {}, {}, []
    cfg.start_timed()
    with rec.span("timed"):
        for _ in range(cfg.units):
            for it in items:
                name = it["name"]
                cfg.tick()
                t0 = time.perf_counter()
                try:
                    tables[name], texts[name] = _build_and_dump(it, rec)
                except ReproError as exc:
                    errors.append((name, f"build raised {exc!r}"))
                times[name].append(time.perf_counter() - t0)
    cfg.stop_timed()
    return _offline_result(items, times, tables, texts, errors, cfg.units)


def offline_warm(cfg, rec) -> dict:
    """The same tables through a populated ScheduleCache (fetch + verify)."""
    install_offline_spans(rec)
    items = offline_instances(cfg.seed, cfg.quick)
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    try:
        cache = ScheduleCache(cache_dir)
        cold_texts = {}
        with rec.span("setup.populate"):
            for it in items:
                cfg.tick()      # set-up is a cold pass: read the host here too
                _table, cold_texts[it["name"]] = _build_and_dump(it, rec, cache)
        populate = (cache.stats.hits, cache.stats.misses, cache.stats.stores)
        if rec.enabled:
            rec.counts.clear()   # the timed region's counts start at zero
        times: dict[str, list[float]] = {it["name"]: [] for it in items}
        lazy_first, lazy_hit = [], []
        tables, texts, errors = {}, {}, []
        cfg.start_timed()
        with rec.span("timed"):
            for _ in range(cfg.units):
                for it in items:
                    name = it["name"]
                    cfg.tick()
                    t0 = time.perf_counter()
                    try:
                        tables[name], texts[name] = _build_and_dump(it, rec, cache)
                        with rec.span("approx.lazy.construct", name):
                            lazy = LazyScheduleTable(
                                it["graph"], it["space"],
                                OptimalScheduler(it["cluster"]), cache=cache,
                            )
                        state = it["space"][0]
                        t1 = time.perf_counter()
                        with rec.span("approx.lazy.first_lookup", name):
                            first = lazy.lookup(state)
                        t2 = time.perf_counter()
                        with rec.span("approx.lazy.hit", name):
                            again = lazy.lookup(state)
                        t3 = time.perf_counter()
                    except ReproError as exc:
                        errors.append((name, f"build raised {exc!r}"))
                        times[name].append(time.perf_counter() - t0)
                        continue
                    times[name].append(t3 - t0)
                    lazy_first.append(t2 - t1)
                    lazy_hit.append(t3 - t2)
                    if texts[name] != cold_texts[name]:
                        errors.append((name, "warm table JSON differs from cold"))
                    elif again is not first or (
                        first.latency != tables[name].lookup(state).latency
                    ):
                        errors.append((name, "lazy lookup disagrees with the table"))
        cfg.stop_timed()
        out = _offline_result(items, times, tables, texts, errors, cfg.units)
        hits = cache.stats.hits - populate[0]
        misses = cache.stats.misses - populate[1]
        if misses:
            out["failures"].append(f"{misses} cache misses in the timed region")
            out["failed"] += misses
        out["counts"].update({
            "core.cache.hits": hits, "core.cache.misses": misses,
            "core.cache.stores_setup": populate[2],
        })
        out["lazy_first_s"] = lazy_first
        out["lazy_hit_s"] = lazy_hit
        return out
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# -- sim_online ---------------------------------------------------------------

KIOSK = dict(arrival_rate=1.0 / 60.0, mean_dwell=150.0, max_people=5)
#: Ten simulated minutes a round (~0.25 s of wall time): short enough that
#: a round's samples from three children see three different host moments.
ROUND_HORIZON_S = 600.0
FRAME_PERIOD_S = 2.0
NOISE_PROB = 0.08
CONFIRM = 3
SIM_STATES = StateSpace.range("n_models", 1, 5)
#: Distinct rounds, one per starting occupancy.  A child that runs more
#: rounds than this repeats them in turn: a repeat is the same work again,
#: so every round has several samples for the lower quartile to choose from.
DISTINCT_ROUNDS = KIOSK["max_people"]
#: The traced child (and its untraced control run) records ~75 spans a
#: frame, so its rounds are a third as long and only the first three are
#: run, three times each: as many spans as three full rounds, but three
#: samples of every round for the fast end to be taken from.
TRACED_DISTINCT_ROUNDS, TRACED_ROUND_SHARE = 3, 1 / 3
SIM_TICKS = 3                    # host-speed readings before every round


def install_sim_spans(rec) -> None:
    """Wrap the on-line layers reached from inside switcher / executor calls.

    Most of a replayed frame runs *inside* ``Simulator.run``: the process
    bodies ``StaticExecutor.run`` hands to the DES, and the hub, STM, GC and
    resource calls they make.  Each of those is wrapped at its public entry
    point, and every resumption of a process body is its own span, so that
    the self time left under ``sim.engine.run`` is the event loop alone.
    Not wrapped, because a span would cost more than the call:
    ``Simulator.timeout`` / ``event`` / ``SimEvent.succeed``,
    ``FlatSchedule.primary`` and ``TraceRecorder.record_*`` — their time
    counts where they are called from.
    """
    if not rec.enabled:
        return
    import repro.runtime.hub as hub_mod
    import repro.runtime.static_exec as static_exec_mod
    from repro.runtime.dispatch import FlatSchedule
    from repro.runtime.hub import ChannelHub
    from repro.sim.engine import Simulator
    from repro.sim.resources import Resource
    from repro.stm.channel import STMChannel

    rec.wrap(RegimeDetector, "observe", "core.regime.observe")
    rec.wrap(ScheduleTable, "lookup", "core.table.lookup")
    rec.wrap(DrainTransition, "effect", "core.transition.effect")
    rec.wrap(static_exec_mod, "FlatSchedule", "runtime.dispatch.flatten")
    rec.wrap(static_exec_mod, "build_task_plans", "runtime.dispatch.task_plans")
    rec.wrap(FlatSchedule, "instantiate", "runtime.dispatch.instantiate")
    rec.wrap(static_exec_mod, "build_hubs", "runtime.hub.build")
    for op in ("put", "try_get", "consume"):
        rec.wrap(ChannelHub, op, f"runtime.hub.{op}")
    for op in ("put", "get", "consume"):
        rec.wrap(STMChannel, op, f"stm.channel.{op}")
    rec.wrap(hub_mod, "collect_channel", "stm.gc.collect")
    for op in ("request", "release"):
        rec.wrap(Resource, op, f"sim.resources.{op}")
    rec.wrap(Simulator, "run", "sim.engine.run")

    def process(self, gen, name=""):
        # StaticExecutor names a body "<task>@<frame>": the frame of the
        # current segment is the trace id of everything the body does.
        frame = f"{rec.segment}:frame{name.rpartition('@')[2]}"
        return start_process(
            self, rec.spanned(gen, "runtime.static_exec.placement", frame), name
        )

    start_process = rec.replace(Simulator, "process", process)


def sim_online(cfg, rec) -> dict:
    """Detect, look up, switch and replay seeded kiosk rounds on the DES."""
    install_sim_spans(rec)
    cluster = SINGLE_NODE_SMP(4)
    graph = build_tracker_graph()
    table = ScheduleTable.build(
        graph, SIM_STATES, OptimalScheduler(cluster), parallel=1
    )
    horizon = ROUND_HORIZON_S / (10 if cfg.quick else 1)
    distinct = DISTINCT_ROUNDS
    if cfg.traced:
        distinct, horizon = TRACED_DISTINCT_ROUNDS, horizon * TRACED_ROUND_SHARE
    policy = DrainTransition(setup=0.25)

    def executor(solution):
        with rec.span("runtime.static_exec.construct", rec.segment):
            return StaticExecutor(graph, solution.state, cluster, solution,
                                  runtime="sim")

    def replay(ex, solution, n):
        with rec.span("runtime.static_exec.run", rec.segment):
            result = ex.run(n)
        return (solution, n, result.completed_count, result.meta["slips"],
                result.completion_times)

    units: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    checks, switch_lat, switch_observe = [], [], []
    switches = n_observations = 0
    cfg.start_timed()
    with rec.span("timed"):
        for i in range(cfg.units):
            # Round r comes back every ``distinct`` rounds: the same ten
            # minutes again, sampled like an instance's build times.
            r = i % distinct
            env = KioskEnvironment(seed=cfg.seed * 10007 + r, **KIOSK)
            # A round is too short to forget where it started, so the
            # starting occupancy differs from round to round.
            people = 1 + r
            observations = list(env.observations(
                horizon, frame_period=FRAME_PERIOD_S,
                noise_prob=NOISE_PROB, initial=people,
            ))
            detector = RegimeDetector("n_models", State(n_models=people),
                                      confirm=CONFIRM, space=SIM_STATES)
            switcher = RegimeSwitcher(table, detector, policy)
            # (solution, frames asked, completed, slips, completion times):
            # only what the checks need — keeping whole ExecutionResults
            # (traces and all) alive slows the collector, and so the rounds.
            segments = []
            latencies = []
            frames = 0
            cfg.tick(SIM_TICKS)
            t0 = time.perf_counter()
            rec.segment = f"round{r}:t0"
            with rec.span("round", f"round{r}"):
                active = executor(switcher.active)
                since = 0.0
                for t, value in observations:
                    # one observation, and the switch and the replayed
                    # segment it may cause, share a trace id
                    rec.segment = f"round{r}:t{t:g}"
                    old = switcher.active
                    ta = time.perf_counter()
                    with rec.span("core.table.switcher_observe", rec.segment):
                        record = switcher.observe(t, value)
                    if record is None:
                        continue
                    switch_observe.append(time.perf_counter() - ta)
                    upcoming = executor(record.new_solution)
                    latencies.append(time.perf_counter() - ta)
                    n = max(1, math.floor((t - since) / old.period))
                    segments.append(replay(active, old, n))
                    frames += n
                    active, since = upcoming, t
                last = switcher.active
                n = max(1, math.floor((horizon - since) / last.period))
                segments.append(replay(active, last, n))
                frames += n
            units.setdefault(str(r), []).append(time.perf_counter() - t0)
            work[str(r)] = frames
            switch_lat.append(latencies)
            switches += switcher.switch_count
            n_observations += len(observations)
            checks.append((observations, detector, switcher, segments, people))
    cfg.stop_timed()
    failures: list[str] = []
    attempted = failed = 0
    for r, (observations, detector, switcher, segments, people) in enumerate(checks):
        a, f, why = reference.check_sim_round(
            observations, detector, switcher, segments, confirm=CONFIRM,
            lo=1, hi=KIOSK["max_people"], initial=people,
        )
        attempted += a
        failed += f
        failures += [f"round {r}: {w}" for w in why]
    return dict(
        units=units,
        work=work,
        latency_s=switch_lat,
        switch_observe_s=switch_observe,
        attempted=attempted,
        failed=failed,
        failures=failures,
        counts={"frames": sum(len(units[r]) * work[r] for r in units),
                "switches": switches, "observations": n_observations,
                "rounds": cfg.units},
    )


# -- live ---------------------------------------------------------------------

N_MODELS = 6
FRAME_SHAPE = (120, 160)
CAPACITY = 4
WINDOW = 50                      # frames per throughput window
WARMUP_SHARE = 0.05              # first frames dropped from the samples
LIVE_SEGMENTS = 4                # run() calls a child cuts its frames into
LIVE_TICKS = 6                   # host-speed readings before each, and at the end


def bounded_tracker_graph(capacity: int = CAPACITY) -> TaskGraph:
    """The tracker graph with every streaming channel bounded (paper §3.3).

    With unbounded channels the free-running source floods STM: threaded
    throughput falls from 440 fps at 200 frames to ~250 fps at 4000, and
    "latency" measures queue depth.  Bounded channels close the loop: the
    source blocks once ``capacity`` frames are in flight.
    """
    base = build_tracker_graph(frame_shape=FRAME_SHAPE)
    out = TaskGraph(base.name)
    for ch in base.channels:
        out.add_channel(ch if ch.static else ch.with_capacity(capacity))
    for task in base.tasks:
        out.add_task(task)
    out.validate()
    return out


def serial_schedule() -> PipelinedSchedule:
    """Five serial placements on one node: one forked worker on ``process``."""
    t4 = 0.023 + 0.853 * N_MODELS
    iteration = IterationSchedule([
        Placement("T1", (0,), 0.0, 0.002),
        Placement("T2", (1,), 0.002, 0.120),
        Placement("T3", (2,), 0.002, 0.080),
        Placement("T4", (0,), 0.122, t4),
        Placement("T5", (0,), 0.122 + t4, 0.07),
    ])
    return PipelinedSchedule(iteration, period=0.2 + t4, shift=0, n_procs=4)


def live_inputs(seed: int):
    """``(video, live graph, static inputs)`` for one seeded run."""
    video = VideoSource(n_targets=N_MODELS, height=FRAME_SHAPE[0],
                        width=FRAME_SHAPE[1], seed=seed)
    graph, statics = attach_kernels(bounded_tracker_graph(), video,
                                    t4_work_scale=1)
    return video, graph, statics


def window_seconds(completion_times: dict[int, float]) -> list[float]:
    """Wall time of each window of ``WINDOW`` consecutive completions."""
    done = [completion_times[ts] for ts in sorted(completion_times)]
    skip = int(len(done) * WARMUP_SHARE)
    return [done[i + WINDOW] - done[i]
            for i in range(skip, len(done) - WINDOW, WINDOW)]


def _live(cfg, rec, substrate: str) -> dict:
    """``LIVE_SEGMENTS`` runs of the same frames, one executor each.

    A run() cannot be interrupted for a host-speed reading, so the frames
    are cut into a few runs with readings between them; every segment plays
    the same seeded video from its first frame, so one serial reference
    checks them all.
    """
    frames = max(3 * WINDOW, cfg.units // LIVE_SEGMENTS // (4 if cfg.quick else 1))
    executors = []
    for _ in range(1 if cfg.quick else LIVE_SEGMENTS):
        # kernels keep state from frame to frame (T2's previous frame), so
        # every segment gets its own attached graph
        video, graph, statics = live_inputs(cfg.seed)
        executors.append(StaticExecutor(
            graph, State(n_models=N_MODELS), SINGLE_NODE_SMP(4),
            serial_schedule(), runtime=substrate, static_inputs=statics))
    results = []
    outside = 0.0
    cfg.start_timed()
    with rec.span("timed"):
        for ex in executors:
            cfg.tick(LIVE_TICKS)
            t0 = time.perf_counter()
            with rec.span(f"runtime.{substrate}.run"):
                result = ex.run(frames)
                outside += time.perf_counter() - t0
                for span in result.trace.spans if rec.enabled else ():
                    # per-task spans are adapted from the public trace, not
                    # re-instrumented; on threads they include GIL waits
                    rec.add(f"apps.tracker.kernels.{span.task}", t0 + span.start,
                            t0 + span.end, trace=f"frame{span.timestamp}")
            results.append(result)
        cfg.tick(LIVE_TICKS)
    cfg.stop_timed()
    if cfg.corrupt:
        reference.corrupt_live_outputs(
            results[0].meta["outputs"]["model_locations"],
            results[0].completion_times)
    skip = int(frames * WARMUP_SHARE)
    attempted, failed, failures = reference.check_live(
        video, N_MODELS, frames, results)
    counts = {"frames": frames * len(results)}
    extra = {}
    if substrate == "process":
        ops: dict[str, int] = {}
        for result in results:
            for op, n in result.meta["broker_ops"].items():
                ops[op] = ops.get(op, 0) + n
        counts.update({
            "stm.process.roundtrips": sum(
                r.meta["broker_roundtrips"] for r in results),
            "stm.process.step_ops": ops.get("step", 0),
            "stm.process.local_ops": sum(
                n for op, n in ops.items() if op.startswith("local")
            ),
            "runtime.process.live_item_high_water": max(
                r.live_item_high_water for r in results),
        })
        extra["broker_ops"] = ops
    return dict(
        units={"window": [w for r in results
                          for w in window_seconds(r.completion_times)]},
        work={"window": WINDOW},
        latency_s=[
            [lat for ts in range(start, min(start + WINDOW, frames))
             if (lat := r.latency(ts)) is not None]
            for r in results for start in range(skip, frames, WINDOW)
        ],
        outside_wall_s=outside,
        runtime_wall_s=sum(r.meta["wall_time"] for r in results),
        attempted=attempted,
        failed=failed,
        failures=failures,
        counts=counts,
        **extra,
    )


def live_threaded(cfg, rec) -> dict:
    """The tracker's real kernels on threads over ThreadedChannel."""
    return _live(cfg, rec, "threaded")


def live_process(cfg, rec) -> dict:
    """The same run on one forked worker behind the channel broker."""
    return _live(cfg, rec, "process")


WORKLOADS = {
    "offline_cold": offline_cold,
    "offline_warm": offline_warm,
    "sim_online": sim_online,
    "live_threaded": live_threaded,
    "live_process": live_process,
}
