"""Reference checkers: what the benchmark holds the program's outputs against.

None of these references comes out of the layer it checks:

* live outputs are compared, frame by frame and bitwise, with a plain
  serial loop over the five tracker kernels written here — no runtime, no
  STM, no schedule;
* family tables are re-certified by ``repro.workloads``' W-rule verifier,
  which derives its bounds from the graph and the cluster alone, never
  from a solver artifact;
* the warm table's JSON must equal the cold one's byte for byte (checked
  in ``workloads.offline_warm``; the digests are compared across the two
  workloads by ``run.py``);
* a simulated round must show zero slips, every frame completed at
  exactly ``k * II + L``, and as many executed switches as a debounce
  counter re-implemented here finds in the raw observations.

``corrupt_live_outputs`` is the self-test's saboteur: it flips one
``model_locations`` entry and drops one frame, and the run must then
count two failures and exit non-zero.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from repro.apps.colormodel import color_histogram
from repro.apps.tracker import kernels
from repro.apps.video import VideoSource
from repro.workloads.verify import verify_workload_table

__all__ = [
    "serial_tracker_reference",
    "check_live",
    "corrupt_live_outputs",
    "recertify_table",
    "reference_change_count",
    "check_sim_round",
]

_EPS = 1e-9


def serial_tracker_reference(
    video: VideoSource, n_models: int, frames: int, bins: int = 8,
    timings: Optional[dict[str, list[float]]] = None,
) -> list[list[tuple[int, int, float]]]:
    """``model_locations`` per frame from a plain serial loop over T1..T5.

    With ``timings`` given, each kernel call's wall time is appended under
    ``"T1"``..``"T5"`` — the serial per-kernel cost the live budgets use
    as their base (spans measured inside the threaded substrate include
    GIL waits, so they cannot serve).
    """
    models = [color_histogram(video.model_patch(i), bins) for i in range(n_models)]
    previous = None
    out = []
    clock = time.perf_counter
    for ts in range(frames):
        t0 = clock()
        frame = video.frame(ts)
        t1 = clock()
        mask = kernels.change_detection(frame, previous)
        t2 = clock()
        hist = kernels.frame_histogram(frame, bins)
        t3 = clock()
        planes = kernels.target_detection(frame, models, hist, mask, bins)
        t4 = clock()
        out.append(kernels.peak_detection(planes))
        t5 = clock()
        previous = frame
        if timings is not None:
            for name, dt in zip(("T1", "T2", "T3", "T4", "T5"),
                                (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                timings.setdefault(name, []).append(dt)
    return out


def check_live(
    video: VideoSource, n_models: int, frames: int, results: list,
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` for live runs of the first
    ``frames`` frames of ``video``, one ``ExecutionResult`` each.

    A frame fails when it is missing from the terminal channel or from the
    completion times, or when its locations differ from the reference in
    any bit.  Channel ``puts`` counters that disagree with the frame count
    fail one extra unit each.
    """
    expected = serial_tracker_reference(video, n_models, frames)
    failed = 0
    reasons: list[str] = []
    for run, result in enumerate(results):
        outputs = result.meta["outputs"]["model_locations"]
        for ts in range(frames):
            got = outputs.get(ts)
            if got is None or ts not in result.completion_times:
                failed += 1
                reasons.append(f"run {run} frame {ts} missing")
            elif not _same_locations(got, expected[ts]):
                failed += 1
                reasons.append(
                    f"run {run} frame {ts} differs from the serial reference")
        for name, stats in result.meta["channel_stats"].items():
            if result.graph.channel(name).static:
                continue
            if stats.get("puts") != frames:
                failed += 1
                reasons.append(f"run {run} channel {name}: "
                               f"{stats.get('puts')} puts, {frames} frames")
    return frames * len(results), failed, reasons[:10]


def _same_locations(got, want) -> bool:
    if len(got) != len(want):
        return False
    a = np.array([tuple(x) for x in got], dtype=np.float64)
    b = np.array([tuple(x) for x in want], dtype=np.float64)
    return a.tobytes() == b.tobytes()


def corrupt_live_outputs(outputs: dict[int, Any], completion: dict[int, float]) -> None:
    """Flip one ``model_locations`` entry and drop one frame, in place."""
    timestamps = sorted(outputs)
    flip, drop = timestamps[len(timestamps) // 3], timestamps[2 * len(timestamps) // 3]
    row, col, score = outputs[flip][0]
    outputs[flip] = [(row, col + 1, score)] + list(outputs[flip][1:])
    del outputs[drop]
    completion.pop(drop, None)


def recertify_table(item: dict, table) -> str:
    """W-rule re-certification of a family table; ``""`` when clean.

    Tracker and random-DAG instances carry no service requirements, so
    there is nothing method-independent to hold them to beyond the
    S-rules ``ScheduleTable.build(verify=True)`` already raised on.
    """
    if item["instance"] is None:
        return ""
    report = verify_workload_table(item["instance"], table)
    if report.ok():
        return ""
    return "; ".join(f.rule for f in report.errors())


def reference_change_count(observations, confirm: int, lo: int, hi: int,
                           initial: int) -> int:
    """Confirmed regime changes in a raw observation list (plain debounce)."""
    current, pending, run, changes = initial, None, 0, 0
    for _t, value in observations:
        value = max(lo, min(hi, value))
        if value == current:
            pending, run = None, 0
            continue
        if value == pending:
            run += 1
        else:
            pending, run = value, 1
        if run >= confirm:
            current, pending, run = value, None, 0
            changes += 1
    return changes


def check_sim_round(observations, detector, switcher, segments, *, confirm: int,
                    lo: int, hi: int, initial: int) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` for one simulated round.

    Attempted = frames replayed + switches the reference debounce expects.
    """
    frames_failed = 0
    reasons: list[str] = []
    frames = 0
    for solution, asked, completed, slips, completion_times in segments:
        frames += asked
        bad = asked - completed
        if slips:
            bad = max(bad, slips)
            reasons.append(f"{slips} slips in {solution.state}")
        for k, done in completion_times.items():
            if abs(done - (k * solution.period + solution.latency)) > _EPS:
                bad += 1
                reasons.append(
                    f"{solution.state} frame {k}: completed at {done}, "
                    f"schedule says {k * solution.period + solution.latency}"
                )
                break
        frames_failed += min(asked, bad)
    expected = reference_change_count(observations, confirm, lo, hi, initial)
    missed = abs(expected - switcher.switch_count) + abs(
        detector.change_count - switcher.switch_count
    )
    if missed:
        reasons.append(
            f"reference debounce expects {expected} switches, detector "
            f"confirmed {detector.change_count}, switcher ran "
            f"{switcher.switch_count}"
        )
    return frames + expected, frames_failed + missed, reasons[:10]
