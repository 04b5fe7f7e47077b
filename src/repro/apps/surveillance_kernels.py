"""Live kernels for the surveillance application.

Makes the second application executable end to end (like the tracker):
per-camera synthetic video, motion detection, connected blob detection,
cross-camera fusion by nearest association, and a zone alarm.  All real
NumPy code, unit-tested against ground truth, runnable on the
:class:`~repro.runtime.threaded.ThreadedRuntime`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.apps.tracker.kernels import change_detection
from repro.apps.video import VideoSource
from repro.errors import ReproError
from repro.graph.taskgraph import TaskGraph
from repro.state import State

__all__ = [
    "detect_blobs",
    "fuse_detections",
    "zone_alarm",
    "attach_surveillance_kernels",
]


def detect_blobs(
    motion_mask: np.ndarray, min_pixels: int = 9
) -> list[tuple[int, int, int]]:
    """Connected moving regions: ``[(row, col, pixels), ...]`` centroids.

    4-connected flood fill over the boolean motion mask — small and
    dependency-free rather than fast; frames in tests are tiny.
    """
    if motion_mask.ndim != 2 or motion_mask.dtype != bool:
        raise ReproError(
            f"motion mask must be 2-D bool, got {motion_mask.shape}/{motion_mask.dtype}"
        )
    h, w = motion_mask.shape
    seen = np.zeros_like(motion_mask)
    blobs: list[tuple[int, int, int]] = []
    for r0 in range(h):
        for c0 in range(w):
            if not motion_mask[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            cells = []
            while stack:
                r, c = stack.pop()
                cells.append((r, c))
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < h and 0 <= nc < w and motion_mask[nr, nc] and not seen[nr, nc]:
                        seen[nr, nc] = True
                        stack.append((nr, nc))
            if len(cells) >= min_pixels:
                rows = sum(r for r, _ in cells) / len(cells)
                cols = sum(c for _, c in cells) / len(cells)
                blobs.append((int(round(rows)), int(round(cols)), len(cells)))
    blobs.sort(key=lambda b: -b[2])  # largest first
    return blobs


def fuse_detections(
    per_camera: Sequence[list[tuple[int, int, int]]],
    merge_radius: float = 12.0,
) -> list[dict]:
    """Cross-camera association: merge nearby detections into tracks.

    Cameras watch overlapping views of one scene (shared coordinates in
    this synthetic setup); detections within ``merge_radius`` merge into a
    single track carrying the supporting camera list.
    """
    tracks: list[dict] = []
    for cam, detections in enumerate(per_camera):
        for (r, c, pixels) in detections:
            for track in tracks:
                if abs(track["row"] - r) + abs(track["col"] - c) <= merge_radius:
                    n = len(track["cameras"])
                    track["row"] = (track["row"] * n + r) / (n + 1)
                    track["col"] = (track["col"] * n + c) / (n + 1)
                    track["cameras"].append(cam)
                    break
            else:
                tracks.append({"row": float(r), "col": float(c),
                               "pixels": pixels, "cameras": [cam]})
    return tracks


def zone_alarm(
    tracks: Sequence[dict],
    zone: tuple[int, int, int, int],
) -> list[dict]:
    """Alarms for tracks inside the restricted zone (r0, c0, r1, c1)."""
    r0, c0, r1, c1 = zone
    if r1 <= r0 or c1 <= c0:
        raise ReproError(f"invalid zone {zone}")
    return [
        {"row": t["row"], "col": t["col"], "cameras": sorted(set(t["cameras"]))}
        for t in tracks
        if r0 <= t["row"] < r1 and c0 <= t["col"] < c1
    ]


def attach_surveillance_kernels(
    graph: TaskGraph,
    videos: Sequence[VideoSource],
    zone: tuple[int, int, int, int] = (0, 0, 40, 40),
    threshold: int = 60,
) -> TaskGraph:
    """A copy of the surveillance graph with live compute kernels.

    ``videos[i]`` feeds camera ``i``; all cameras watch the same synthetic
    scene when constructed with the same seed (overlapping views).
    """
    max_cameras = len([t for t in graph.tasks if t.name.startswith("cam")])
    if len(videos) != max_cameras:
        raise ReproError(
            f"graph has {max_cameras} cameras but {len(videos)} video sources given"
        )

    def make_camera(video: VideoSource, out_ch: str):
        counter = {"ts": 0}

        def compute(state: State, inputs: dict) -> dict:
            frame = video.frame(counter["ts"])
            counter["ts"] += 1
            return {out_ch: frame}

        return compute

    def make_motion(cam: int):
        memory: dict[str, Optional[np.ndarray]] = {"prev": None}

        def compute(state: State, inputs: dict) -> dict:
            frame = inputs[f"cam{cam}_frames"]
            mask = change_detection(frame, memory["prev"], threshold)
            memory["prev"] = frame
            return {f"cam{cam}_motion": mask}

        return compute

    def make_detect(cam: int):
        def compute(state: State, inputs: dict) -> dict:
            return {f"cam{cam}_objects": detect_blobs(inputs[f"cam{cam}_motion"])}

        return compute

    def fuse_compute(state: State, inputs: dict) -> dict:
        per_camera = [
            inputs[ch] for ch in sorted(inputs) if ch.endswith("_objects")
        ]
        return {"tracks": fuse_detections(per_camera)}

    def alarm_compute(state: State, inputs: dict) -> dict:
        return {"alarms": zone_alarm(inputs["tracks"], zone)}

    out = TaskGraph(f"{graph.name}/live")
    for ch in graph.channels:
        out.add_channel(ch)
    for t in graph.tasks:
        compute = t.compute
        if t.name.startswith("cam"):
            cam = int(t.name[3:])
            compute = make_camera(videos[cam], t.outputs[0])
        elif t.name.startswith("motion"):
            compute = make_motion(int(t.name[6:]))
        elif t.name.startswith("detect"):
            compute = make_detect(int(t.name[6:]))
        elif t.name == "fuse":
            compute = fuse_compute
        elif t.name == "alarm":
            compute = alarm_compute
        out.add_task(t.replace(compute=compute))
    out.validate()
    return out
