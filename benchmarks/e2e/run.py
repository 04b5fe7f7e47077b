#!/usr/bin/env python3
"""Two-path end-to-end benchmark: off-line table build and on-line frame loop.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--repeat R] [--trace 0|1] [--out FILE]
                                  [--quick] [--selfcheck] [--spread N]

Runs the five workloads of ``BENCHMARK.json`` (or one), each as ``--repeat``
fresh child processes of a fixed size, each with inputs of its own, reduces
the children's raw samples to the metrics, prints every metric by name with
its unit, checks outputs against ``reference.py`` and exits non-zero on any
failed check.  ``--seconds`` is
only used to pick the size: a whole number of passes, rounds or frames per
child from ``NOMINAL_UNIT_S``.  With one ``--workload`` the last line of
standard output is the driver's JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.

End-to-end metrics are measured with tracing off, always by the same
``--repeat`` children, in calibrated seconds: wall seconds over the child's
host factor (``hostclock.py``); the wall figures are printed next to them.  ``--trace 1`` adds one child that runs the workload
untraced (the control its budget is held against) and again with spans
recorded (``spans.py``), runs the workload's probes (``probes.py``), writes
``out/spans-<workload>.jsonl`` and prints the per-layer budget.

``--quick`` shrinks every size for a smoke run of the checks (numbers are
printed but mean nothing); ``--selfcheck`` runs two full sets back to back
and fails when an end-to-end metric differs between them by more than its
own bound; ``--spread N`` runs N consecutive seeds and prints each
end-to-end metric's inter-quartile range over its median.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time is counted from the child's first line

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import hostclock  # noqa: E402  (needs HERE)
from spans import NullRecorder, Recorder, budget_lines  # noqa: E402

DEFAULT_SECONDS = 10.0
DEFAULT_REPEAT = 3
CHILD_TIMEOUT_S = 170
MAX_CHILDREN = 8          # --repeat children and the traced one: sub-seeds
TICK_EVERY_S = 0.15       # host-speed readings: at most one per this long

#: Wall seconds of one unit of work — a pass over the instance set, a
#: simulated round, a frame — on the host that recorded BASELINE.json.
#: ``--seconds`` picks a whole number of units from these and nothing else,
#: so the work of a run is fixed by its arguments and not by how fast the
#: code under test is.
NOMINAL_UNIT_S = {
    "offline_cold": 2.2,
    "offline_warm": 0.075,
    "sim_online": 0.25,
    "live_threaded": 1 / 460,
    "live_process": 1 / 245,
}
#: Units of the traced child (and of its untraced control run) where an
#: untraced child's size would not do: two cold passes, so that every
#: instance has two samples; nine simulated rounds, which in a traced child
#: are three short ones three times over (``workloads.TRACED_*``) — ~75
#: spans a frame make ~230 k spans, as many as it is worth keeping in memory.
TRACED_UNITS = {"offline_cold": 2, "sim_online": 9}

#: What the two workload-neutral gated names mean on each workload — the
#: spelling the report prints next to the gated name.
ALIASES = {
    "offline_cold": {"throughput_per_s": "states_per_s",
                     "latency_ms_p50": "tracker_table_ms_p50"},
    "offline_warm": {"throughput_per_s": "states_per_s",
                     "latency_ms_p50": "tracker_table_ms_p50"},
    "sim_online": {"throughput_per_s": "frames_per_s",
                   "latency_ms_p50": "switch_latency_ms_p50"},
    "live_threaded": {"throughput_per_s": "frames_per_s",
                      "latency_ms_p50": "frame_latency_ms_p50"},
    "live_process": {"throughput_per_s": "frames_per_s",
                     "latency_ms_p50": "frame_latency_ms_p50"},
}

#: ``setup_s`` is import-dominated (0.3 s) on four workloads; two sets of
#: the same code may differ by this much before --selfcheck calls it a
#: difference (ISSUE 12: "15 %, floor 0.2 s").
SETUP_FLOOR_S = 0.2


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workloads, metrics, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# =============================================================================
# Child: one (workload, seed, index) measurement in a fresh process
# =============================================================================


class ChildConfig:
    """What a workload function needs from the harness, and its stopwatch."""

    def __init__(self, args) -> None:
        # Every child of a run draws its own inputs: a run times three
        # instance sets / sets of kiosk rounds / videos, not one three times.
        self.seed = args.seed * MAX_CHILDREN + args.index
        self.units = args.units
        self.quick = args.quick
        self.traced = bool(args.trace)   # also true in the traced child's control run
        self.corrupt = args.corrupt
        self.process_children = args.workload == "live_process"
        self.setup_s = self.timed_s = self.peak_rss_mb = 0.0
        self._t_timed = self._t_tick = 0.0
        self._clock = None
        self.host_readings: list[float] = []

    def tick(self, n: int = 0) -> None:
        """Ask the host-speed reference (``hostclock.HostClock``) for a reading.

        Workloads call this at every unit boundary, outside the unit's
        stopwatch; a reading is taken when the last one is ``TICK_EVERY_S``
        old, so the reference costs a few per cent of the timed region
        however short the units are.  ``n`` readings are forced when given.
        """
        if not n:
            if time.perf_counter() - self._t_tick < TICK_EVERY_S:
                return
            n = 1
        if self._clock is None:
            self._clock = hostclock.HostClock()
        for _ in range(n):
            self.host_readings.append(self._clock.read())
        self._t_tick = time.perf_counter()

    def close(self) -> None:
        if self._clock is not None:
            self._clock.close()
            self._clock = None

    def start_timed(self) -> None:
        """End of set-up, start of the timed region."""
        self._t_timed = time.perf_counter()
        self.setup_s = self._t_timed - _T0

    def stop_timed(self) -> None:
        self.timed_s = time.perf_counter() - self._t_timed
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.process_children:
            kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = kib / 1024.0


def child_main(args) -> int:
    # One CPU for the child and every thread and process it starts.  The
    # second core of the baseline host comes and goes, and a run that hops
    # between cores is neither faster nor steady: same-seed lower-quartile
    # frames/s ranged 406-498 free against 447-478 pinned on live_threaded,
    # and live_process was a quarter *slower* free (197 against 247).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports repro: part of the measured set-up

    run = workloads.WORKLOADS[args.workload]
    rec = NullRecorder()
    control = None
    if args.trace:
        if not args.workload.startswith("live"):
            # the traced run's control: the same units, untraced, just
            # before it (the live budget is not built from spans: no need)
            cfg = ChildConfig(args)
            try:
                control = run(cfg, rec)
            finally:
                cfg.close()
        rec = Recorder()
        rec.calibrate()
    cfg = ChildConfig(args)
    try:
        out = run(cfg, rec)
    finally:
        rec.unwrap_all()
        cfg.close()
    out.update(workload=args.workload, seed=args.seed, index=args.index,
               setup_s=cfg.setup_s, timed_s=cfg.timed_s,
               peak_rss_mb=cfg.peak_rss_mb,
               host_factor=hostclock.factor(cfg.host_readings),
               host_readings=len(cfg.host_readings))
    if args.trace:
        import probes

        if control is not None:
            out["units_untraced"] = control["units"]
            for key in ("attempted", "failed", "failures"):   # its checks count
                out[key] += control[key]
        root = "round" if args.workload == "sim_online" else "timed"
        out["span_root"] = root
        out["spans"] = rec.self_times(root)
        out["span_counts"] = rec.counts
        out["span_cost_us"] = [rec.cost_inside_s * 1e6, rec.cost_outside_s * 1e6]
        if args.workload == "offline_warm":
            out["spans_setup"] = rec.self_times("setup.populate")
        out["probes"] = probes.PROBES[args.workload](cfg)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        out["spans_written"] = rec.dump_jsonl(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 1 if out["failed"] else 0


# =============================================================================
# Parent: spawn children, reduce their samples to metrics
# =============================================================================


def spawn_child(workload: str, seed: int, index: int, units: int,
                trace: bool = False, quick: bool = False,
                corrupt: bool = False) -> dict:
    """Run one child to completion and return its record.

    The child's exit code is kept in ``record["exit_code"]``; a child that
    dies without a record raises, which fails the whole command.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed), "--index", str(index),
           "--units", str(units), "--trace", str(int(trace))]
    cmd += ["--quick"] * quick + ["--corrupt"] * corrupt
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} child {index} exited {proc.returncode} without a record"
        )
    record = json.loads(lines[-1])
    record["exit_code"] = proc.returncode
    return record


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; values need not be sorted."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quiet(values: list[float]) -> float:
    """The time a unit takes when the host leaves it alone: the 10th
    percentile (nearest rank) of its samples, which is the fastest of up to
    ten.  On a shared host interference only ever makes a unit slower, so
    the fast end tracks the program and the rest tracks the neighbours.
    Over six same-seed runs of sim_online on a bad quarter of an hour the
    spread (range / median) was 21 % by the median of a round's eight
    samples, 15 % by their lower quartile and, but for one run that was
    slow throughout, 6 % by this; with the ~60 windows of a live run the
    10th percentile, the lower quartile and the median all spread 5-7 %."""
    return percentile(values, 0.10)


def seconds_per_item(records: list[dict], reduce, calibrated: bool = False) -> float:
    """Seconds per work item (one state, one frame).

    ``reduce`` turns the samples of one unit id of one child — an
    instance's build times, a round's wall times, the windows of
    consecutive completions — into one time; those are summed over unit
    ids and children and divided by the items the units hold.
    ``calibrated`` divides a child's times by its host factor
    (``hostclock``).
    """
    seconds = items = 0.0
    for r in records:
        factor = r["host_factor"] if calibrated else 1.0
        seconds += sum(map(reduce, r["units"].values())) / factor
        items += sum(r["work"][unit] for unit in r["units"])
    return seconds / items


def end_to_end(workload: str, records: list[dict]) -> dict[str, float]:
    """The four gated metrics plus the un-gated ones the report prints."""
    # A child's latency: of the median latencies of its units (table
    # builds, rounds, windows of frames) the quiet one — the typical item
    # when the host leaves the child alone.  Across children: the median.
    child_lat = [(quiet([statistics.median(g) for g in r["latency_s"] if g]),
                  r["host_factor"]) for r in records]
    lat = [t for r in records for g in r["latency_s"] for t in g]
    extra: dict[str, float] = {}
    if workload == "sim_online":
        extra = {"switch_latency_ms_p95": percentile(lat, 0.95) * 1e3,
                 "latency_samples": len(lat)}
    elif workload.startswith("live"):
        frames = sum(r["counts"]["frames"] for r in records)
        extra = {
            "frame_latency_ms_p95": percentile(lat, 0.95) * 1e3,
            "frame_latency_ms_p99": percentile(lat, 0.99) * 1e3,
            "latency_samples": len(lat),
            "frames_per_s_outside": frames / sum(r["outside_wall_s"] for r in records),
        }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        # gated times are in calibrated seconds: wall seconds over the
        # child's host factor; the *_wall twins are what a stopwatch read
        "throughput_per_s": 1.0 / seconds_per_item(records, quiet, True),
        "throughput_per_s_wall": 1.0 / seconds_per_item(records, quiet),
        "latency_ms_p50": statistics.median(t / f for t, f in child_lat) * 1e3,
        "latency_ms_p50_wall": statistics.median(t for t, _f in child_lat) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(
            r["setup_s"] / r["host_factor"] for r in records),
        "setup_s_wall": statistics.median(r["setup_s"] for r in records),
        "host_factor": statistics.median(r["host_factor"] for r in records),
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        **extra,
    }


def budget_unit_seconds(workload: str, plain: list[dict], traced: dict) -> tuple:
    """``(untraced, traced, calm)`` for the budget of one unit.

    The unit is one pass off-line and one frame on-line.  The traced child
    runs its workload twice, first untraced — its own control, the same
    units in the same process within the same few seconds — and both unit
    times are the gated estimator's (``quiet`` time per unit id).  Held
    against the other, untraced children the comparison is the host's: on a
    bad minute two children of the same code differ by 10 %.  (The live
    budget is a kernel probe against the frame time of the untraced
    children, so there the traced child runs no control.)  Self times are
    sums over the whole traced run, host interference included; ``calm``,
    the traced run's quiet unit time over its mean unit time, scales them to
    the same footing (a burst slows every layer alike).
    """
    scale = traced["counts"]["states_per_pass"] if workload.startswith(
        "offline") else 1.0
    if "units_untraced" in traced:
        plain = [{"units": traced["units_untraced"], "work": traced["work"]}]
    traced_unit = seconds_per_item([traced], quiet)
    return (seconds_per_item(plain, quiet) * scale, traced_unit * scale,
            traced_unit / seconds_per_item([traced], statistics.fmean))


def per_layer(workload: str, plain: list[dict], traced: dict) -> dict[str, float]:
    """Every per-layer metric of ``workload``: budget lines, counts, probes."""
    out: dict[str, float] = dict(traced["probes"])
    spans, root = traced["spans"], traced["span_root"]
    counts = traced["counts"]
    untraced_unit, traced_unit, calm = budget_unit_seconds(workload, plain, traced)
    out["trace_overhead_share"] = traced_unit / untraced_unit - 1.0
    # spans were recorded over this many budget units
    units = counts["passes"] if workload.startswith("offline") else counts["frames"]

    def self_per_unit(*names: str) -> float:
        return sum(spans[n][0] for n in names if n in spans) / units * calm

    def calls(*names: str) -> int:
        return sum(spans[n][1] for n in names if n in spans)

    def mean_call_us(name: str) -> float:
        _self, n, total_s = spans.get(name, [0.0, 0, 0.0])
        return total_s / n * 1e6 if n else 0.0

    unattributed = 1.0 - self_per_unit(*(n for n in spans if n != root)) / untraced_unit
    if workload.startswith("offline"):
        for metric, span in OFFLINE_SPANS.items():
            out[metric] = self_per_unit(span)
        for key, value in traced["span_counts"].items():
            out[key] = value / units
        search_total = spans.get("core.enumerate.search", [0, 0, 0.0])[2] / units
        out["core.enumerate.nodes_per_s"] = (
            out.get("core.enumerate.explored", 0.0) / search_total
            if search_total else 0.0
        )
        out["core.serialize.table_bytes"] = counts["table_bytes"]
        out["offline.unattributed_share"] = unattributed
        if workload == "offline_warm":
            out["core.cache.store_s"] = traced["spans_setup"].get(
                "core.cache.store", [0.0])[0]
            hits = counts["core.cache.hits"] / units
            misses = counts["core.cache.misses"] / units
            out["core.cache.hits"], out["core.cache.misses"] = hits, misses
            out["core.cache.hit_ratio"] = hits / (hits + misses)
            out["approx.lazy.first_lookup_ms"] = statistics.median(
                t for r in plain for t in r["lazy_first_s"]) * 1e3
            out["approx.lazy.hit_us"] = statistics.median(
                t for r in plain for t in r["lazy_hit_s"]) * 1e6
    elif workload == "sim_online":
        for metric, span in SIM_CALL_SPANS.items():
            out[metric] = mean_call_us(span)
        for metric, names in SIM_FRAME_SPANS.items():
            out[metric] = self_per_unit(*names) * 1e6
        out["stm.channel.ops_per_frame"] = calls(
            *SIM_FRAME_SPANS["stm.channel.ops_us_per_frame"]) / units
        out["sim.engine.resumes_per_frame"] = calls(
            "runtime.static_exec.placement") / units
        out["core.table.switch_us_p50"] = statistics.median(
            t for r in plain for t in r["switch_observe_s"]) * 1e6
        out["sim_online.unattributed_share"] = unattributed
    else:
        substrate = workload.split("_")[1]
        frame_ms = out["apps.tracker.kernels.frame_ms"]
        wall_us = untraced_unit * 1e6
        overhead = wall_us - frame_ms * 1e3
        out[f"runtime.{substrate}.overhead_us_per_frame"] = overhead
        out[f"runtime.{substrate}.kernel_share"] = frame_ms * 1e3 / wall_us
        out[f"runtime.{substrate}.startup_ms"] = statistics.median(
            r["outside_wall_s"] - r["runtime_wall_s"] for r in plain) * 1e3
        out["frame_latency_ms_p95"] = percentile(
            [t for r in plain for g in r["latency_s"] for t in g], 0.95) * 1e3
        if substrate == "process":
            trips = counts["stm.process.roundtrips"] / counts["frames"]
            out["stm.process.roundtrips_per_frame"] = trips
            out["stm.process.step_ops"] = counts["stm.process.step_ops"]
            out["stm.process.local_ops"] = counts["stm.process.local_ops"]
            out["stm.process.us_per_roundtrip"] = overhead / trips
            out["runtime.process.live_item_high_water"] = counts[
                "runtime.process.live_item_high_water"]
    return out


#: per-layer metric <- span whose self time it is (seconds of one pass)
OFFLINE_SPANS = {
    "core.table.build_s": "core.table.build",
    "core.parallel.request_s": "core.parallel.request",
    "core.parallel.solve_many_s": "core.parallel.solve_many",
    "core.enumerate.search_s": "core.enumerate.search",
    "core.pipeline.best_pipelined_s": "core.pipeline.best_pipelined",
    "analysis.graphlint.lint_s": "analysis.graphlint.lint",
    "analysis.schedverify.verify_s": "analysis.schedverify.verify",
    "analysis.stmcheck.check_s": "analysis.stmcheck.check",
    "analysis.model.check_s": "analysis.model.check",
    "core.cache.digest_s": "core.cache.digest",
    "core.cache.fetch_s": "core.cache.fetch",
    "core.serialize.dump_s": "core.serialize.dump",
    "core.serialize.load_s": "core.serialize.load",
}
#: per-layer metric <- span whose mean call duration it is (microseconds)
SIM_CALL_SPANS = {
    "core.regime.observe_us": "core.regime.observe",
    "core.table.lookup_us": "core.table.lookup",
    "core.transition.effect_us": "core.transition.effect",
    "runtime.dispatch.flatten_us": "runtime.dispatch.flatten",
    "runtime.dispatch.instantiate_us": "runtime.dispatch.instantiate",
    "runtime.static_exec.construct_us": "runtime.static_exec.construct",
}
#: per-layer metric <- spans whose self time per replayed frame it sums (us)
SIM_FRAME_SPANS = {
    "runtime.static_exec.run_us_per_frame": ("runtime.static_exec.run",),
    "runtime.static_exec.placement_us_per_frame": ("runtime.static_exec.placement",),
    "runtime.hub.build_us_per_frame": ("runtime.hub.build",),
    "runtime.hub.ops_us_per_frame": (
        "runtime.hub.put", "runtime.hub.try_get", "runtime.hub.consume"),
    "stm.channel.ops_us_per_frame": (
        "stm.channel.put", "stm.channel.get", "stm.channel.consume"),
    "stm.gc.collect_us_per_frame": ("stm.gc.collect",),
    "sim.resources.ops_us_per_frame": (
        "sim.resources.request", "sim.resources.release"),
    "sim.engine.run_us_per_frame": ("sim.engine.run",),
}


# =============================================================================
# Report
# =============================================================================


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_end_to_end(spec: dict, workload: str, records: list[dict],
                     e2e: dict) -> None:
    alias = ALIASES[workload]
    print(f"\n== {workload}: seed {records[0]['seed']}, {len(records)} runs, "
          f"{sum(r['timed_s'] for r in records):.1f} s measured ==")
    per_run = [end_to_end(workload, [r]) for r in records]
    for m in spec["end_to_end"]:
        name = m["name"]
        runs = [one[name] for one in per_run]
        label = f"{name} ({alias[name]})" if name in alias else name
        arrow = "^" if m["better"] == "higher" else "v"
        wall = f"   wall {fmt(e2e[name + '_wall'])}" if name + "_wall" in e2e else ""
        print(f"  {label:46s} {fmt(e2e[name]):>10s} {m['unit']:5s}{arrow} "
              f"runs {fmt(min(runs))} .. {fmt(max(runs))}   bound {m['bound']:.0%}{wall}")
    for name in ("frame_latency_ms_p95", "frame_latency_ms_p99",
                 "switch_latency_ms_p95", "frames_per_s_outside"):
        if name in e2e:
            unit = "1/s" if name.endswith("outside") else "ms"
            print(f"  {name:46s} {fmt(e2e[name]):>10s} {unit:5s}  (not gated)")
    if "latency_samples" in e2e:
        print(f"  {'latency samples':46s} {e2e['latency_samples']:>10d}")
    print(f"  {'failed_share':46s} {fmt(e2e['failed_share']):>10s} ratio "
          f" {e2e['failed']} failed / {e2e['attempted']} attempted")
    factors = [r["host_factor"] for r in records]
    nominal_ms = hostclock.NOMINAL_S * 1e3
    print(f"  {'host_factor (hostclock.burn / NOMINAL_S)':46s} "
          f"{fmt(e2e['host_factor']):>10s} ratio  runs {fmt(min(factors))} .. "
          f"{fmt(max(factors))}, {sum(r['host_readings'] for r in records)} "
          f"readings, {fmt(e2e['host_factor'] * nominal_ms)} ms against "
          f"{fmt(nominal_ms)} ms nominal")
    counts = {k: sum(r["counts"][k] for r in records) for k in records[0]["counts"]}
    print("  counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for r in records:
        for why in r["failures"]:
            print(f"  FAILED run {r['index']}: {why}")


def print_budget(spec: dict, workload: str, plain: list[dict], traced: dict,
                 layers: dict[str, float]) -> None:
    spans = traced["spans"]
    offline = workload.startswith("offline")
    untraced_unit, traced_unit, calm = budget_unit_seconds(workload, plain, traced)
    scale, sunit = (1.0, "s") if offline else (1e6, "us")
    print(f"\n-- {workload}: per-layer budget of one "
          f"{'pass' if offline else 'frame'} "
          f"({fmt(untraced_unit * scale)} {sunit} untraced) --")
    if workload.startswith("live"):
        frame_us = layers["apps.tracker.kernels.frame_ms"] * 1e3
        substrate = workload.split("_")[1]
        rows = [
            ("apps.tracker.kernels (serial probe)", frame_us),
            (f"runtime.{substrate} + stm.{substrate} (rest)",
             untraced_unit * 1e6 - frame_us),
        ]
        for name, us in rows:
            print(f"  {name:46s} {fmt(us):>10s} us {us / (untraced_unit * 1e6):7.1%}")
        for name in sorted(spans):
            if name.startswith("apps.tracker.kernels."):
                self_s, calls, _total = spans[name]
                print(f"  {name + ' in-run span mean':46s} "
                      f"{fmt(self_s / calls * 1e6):>10s} us  (includes GIL wait)")
    else:
        units = traced["counts"]["passes" if offline else "frames"]
        self_s = {name: row[0] * calm for name, row in spans.items()}
        for name, secs, share in budget_lines(
                self_s, traced["span_root"], units, untraced_unit, traced_unit):
            print(f"  {name:46s} {fmt(secs * scale):>10s} {sunit:2s} {share:7.1%}")
        inside, outside = traced["span_cost_us"]
        print(f"  (self times are net of the recorder's own cost: {inside:.2f} us "
              f"inside + {outside:.2f} us outside each span)")
    print(f"  spans: {traced['spans_written']} written to {traced['spans_file']}")
    print(f"-- {workload}: per-layer metrics --")
    for m in spec["per_layer"]:
        if m["name"] in layers:
            print(f"  {m['name']:46s} {fmt(layers[m['name']]):>10s} {m['unit']}")


def host_block() -> dict:
    """CPU count and what two busy processes cost each other on this host."""
    burn = ("import time; t=time.perf_counter(); x=0\n"
            "for i in range(6_000_000): x+=i*i\n"
            "print(time.perf_counter()-t)")

    def run(n: int) -> float:
        t0 = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", burn],
                                  stdout=subprocess.DEVNULL) for _ in range(n)]
        for p in procs:
            p.wait()
        return time.perf_counter() - t0

    one = min(run(1) for _ in range(2))
    two = min(run(2) for _ in range(2))
    return {"cpus": os.cpu_count(), "parallel_speedup_2proc": 2 * one / two,
            "python": sys.version.split()[0]}


# =============================================================================
# Command line
# =============================================================================


def measure(spec: dict, workload: str, args) -> tuple[dict, bool]:
    """Run one workload; returns ``(summary, ok)`` and prints its report."""
    units = max(1, round(args.seconds / args.repeat / NOMINAL_UNIT_S[workload]))
    records = plain = [
        spawn_child(workload, args.seed, i, units, quick=args.quick)
        for i in range(args.repeat)
    ]
    e2e = end_to_end(workload, plain)
    print_end_to_end(spec, workload, plain, e2e)
    summary = {"workload": workload, "seed": args.seed, "units_per_run": units,
               "end_to_end": e2e, "table_digest": plain[0].get("table_digest")}
    if args.trace:
        units = TRACED_UNITS.get(workload, units)
        traced = spawn_child(workload, args.seed, args.repeat, units, trace=True,
                             quick=args.quick)
        records = plain + [traced]
        layers = per_layer(workload, plain, traced)
        print_budget(spec, workload, plain, traced, layers)
        summary["per_layer"] = layers
        for why in traced["failures"]:
            print(f"  FAILED traced run: {why}")
    ok = all(r["failed"] == 0 and r["exit_code"] == 0 for r in records)
    summary["attempted"] = sum(r["attempted"] for r in records)
    summary["failed"] = sum(r["failed"] for r in records)
    return summary, ok


def corruption_selftest(args) -> bool:
    """A corrupted live output must be counted and must fail its command."""
    record = spawn_child("live_threaded", args.seed, 0, 0, quick=True,
                         corrupt=True)
    caught = record["failed"] == 2 and record["exit_code"] != 0
    print(f"\ncorruption self-test: one flipped entry + one dropped frame -> "
          f"{record['failed']} failed of {record['attempted']}, child exit "
          f"{record['exit_code']}: {'caught as designed' if caught else 'NOT CAUGHT'}")
    return caught


def driver_line(spec: dict, summary: dict, ok: bool, trace: bool) -> str:
    values = summary["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": ok,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        # a per-layer metric reads 0 on a workload whose traced run does
        # not measure it: that layer does not run there
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    })


def run_set(spec: dict, args) -> tuple[dict, bool]:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results, ok = {}, True
    for name in names:
        results[name], good = measure(spec, name, args)
        ok &= good
    cold, warm = results.get("offline_cold"), results.get("offline_warm")
    if cold and warm and cold["table_digest"] != warm["table_digest"]:
        print("FAILED: offline_warm's tables differ from offline_cold's")
        ok = False
    return results, ok


def selfcheck(spec: dict, args) -> tuple[list[dict], bool]:
    """Two sets of the same code must agree within each metric's own bound."""
    first, ok1 = run_set(spec, args)
    second, ok2 = run_set(spec, args)
    print(f"\n== selfcheck, seed {args.seed}: set 1 vs set 2 ==")
    rows = []
    for workload in first:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = first[workload]["end_to_end"][name]
            b = second[workload]["end_to_end"][name]
            rel = abs(b - a) / a
            same = rel <= bound or (name == "setup_s" and abs(b - a) < SETUP_FLOOR_S)
            rows.append({"workload": workload, "metric": name, "first": a,
                         "second": b, "difference": rel, "bound": bound,
                         "agree": same})
            print(f"  {workload:14s} {name:18s} {fmt(a):>10s} {fmt(b):>10s} "
                  f"{rel:7.1%}  bound {bound:.0%}  {'ok' if same else 'DIFFERS'}")
    return rows, ok1 and ok2 and all(row["agree"] for row in rows)


def spread(spec: dict, args) -> tuple[dict, bool]:
    """Run ``--spread N`` seeds per workload; print each metric's spread.

    Spread = inter-quartile range of the N values over their median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles — the figure
    the driver holds against each metric's bound.
    """
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    table: dict = {}
    ok = True
    first = args.seed
    for workload in names:
        rows = []
        for seed in range(first, first + args.spread):
            args.seed = seed
            summary, good = measure(spec, workload, args)
            ok &= good
            rows.append(summary["end_to_end"])
        table[workload] = {}
        for m in spec["end_to_end"]:
            # the gated (calibrated) value, then what a stopwatch read
            for name in (m["name"], m["name"] + "_wall"):
                if name not in rows[0]:
                    continue
                values = [row[name] for row in rows]
                q1, median, q3 = statistics.quantiles(values, n=4)
                table[workload][name] = {
                    "values": values, "median": median,
                    "spread": (q3 - q1) / median, "bound": m["bound"],
                }
    args.seed = first
    print(f"\n== spread over seeds {first}..{first + args.spread - 1} "
          f"(IQR / median) ==")
    for workload, metrics in table.items():
        for name, row in metrics.items():
            note = "  (not gated)" if name.endswith("_wall") else (
                "" if row["spread"] <= row["bound"] / 3 else (
                    "  > bound/3" if row["spread"] <= row["bound"] else "  > BOUND"))
            print(f"  {workload:14s} {name:18s} median {fmt(row['median']):>10s}  "
                  f"spread {row['spread']:6.1%}  bound {row['bound']:.0%}{note}")
    return table, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(NOMINAL_UNIT_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="nominal measured seconds per workload: picks the "
                         "fixed number of passes / rounds / frames per run")
    ap.add_argument("--repeat", type=int, default=DEFAULT_REPEAT,
                    help="fresh child runs per workload, each with its own inputs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a span-recording child, print the per-layer "
                         "budget and metrics")
    ap.add_argument("--out", help="write the full result as JSON to FILE")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N",
                    help="run N consecutive seeds, print IQR/median per metric")
    for flag in ("--child", "--corrupt"):
        ap.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    for flag in ("--index", "--units"):
        ap.add_argument(flag, type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro next to the benchmark - nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.quick:
        args.seconds, args.repeat = min(args.seconds, 1.0), 1
    if args.selfcheck:
        args.trace = 0
        results, ok = selfcheck(spec, args)
        ok &= corruption_selftest(args)
    elif args.spread:
        args.trace = 0
        results, ok = spread(spec, args)
    else:
        results, ok = run_set(spec, args)
        if not args.workload:
            ok &= corruption_selftest(args)
            results["host"] = host_block()
            print(f"\nhost: {results['host']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    print("\nall checks passed" if ok else "\nCHECKS FAILED")
    if args.workload and not (args.spread or args.selfcheck):
        print(driver_line(spec, results[args.workload], ok, bool(args.trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
