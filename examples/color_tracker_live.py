#!/usr/bin/env python
"""Live color tracker: real NumPy kernels on real threads over STM.

Runs the Figure 2 pipeline end to end — synthetic camera, change
detection, histogram, back-projection target detection, peak detection —
with every task as a Python thread communicating through thread-safe
Space-Time Memory channels, then checks the detected positions against the
video source's ground truth.

Run:  python examples/color_tracker_live.py [n_people] [n_frames]
"""

import sys

from repro.apps.tracker.graph import attach_kernels, build_tracker_graph
from repro.apps.video import VideoSource
from repro.runtime.threaded import ThreadedRuntime
from repro.state import State


def main(n_people: int = 3, n_frames: int = 10) -> None:
    video = VideoSource(n_targets=n_people, height=120, width=160, seed=2026)
    graph, static_inputs = attach_kernels(build_tracker_graph(), video)
    runtime = ThreadedRuntime(
        graph, State(n_models=n_people), static_inputs=static_inputs
    )

    print(f"Tracking {n_people} synthetic people over {n_frames} frames "
          f"({video.height}x{video.width})...")
    result = runtime.run(n_frames)
    # The one result every substrate returns: the horizon is the wall time
    # on a live run, the terminal channels' items are meta["outputs"].
    print(f"Processed {n_frames} frames in {result.horizon:.3f}s wall time.\n")

    hits = 0
    total = 0
    outputs = result.meta["outputs"]["model_locations"]
    for ts in sorted(outputs):
        locations = outputs[ts]
        truth = video.positions(ts)
        marks = []
        for (r, c, score), (tr, tc) in zip(locations, truth):
            inside = (
                tr <= r < tr + video.target_size
                and tc <= c < tc + video.target_size
            )
            hits += inside
            total += 1
            marks.append(f"({r:3d},{c:3d}){'*' if inside else '!'}")
        print(f"  frame {ts:2d}: detected {' '.join(marks)}   "
              f"truth {' '.join(f'({r:3d},{c:3d})' for r, c in truth)}")
    print(f"\n{hits}/{total} detections inside the true target patch "
          f"(* = hit, ! = miss).")
    stats = result.meta["channel_stats"]["frame"]
    print(f"STM 'frame' channel: {stats['puts']} puts, {stats['gets']} gets, "
          f"{stats['collected']} items garbage-collected.")


if __name__ == "__main__":
    n_people = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    n_frames = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    main(n_people, n_frames)
