"""Unit and end-to-end tests for the live surveillance kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.surveillance import build_surveillance_graph
from repro.apps.surveillance_kernels import (
    attach_surveillance_kernels,
    detect_blobs,
    fuse_detections,
    zone_alarm,
)
from repro.apps.video import VideoSource
from repro.errors import ReproError
from repro.runtime.threaded import ThreadedRuntime
from repro.state import State


class TestDetectBlobs:
    def test_single_blob_centroid(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[5:9, 10:14] = True
        blobs = detect_blobs(mask)
        assert len(blobs) == 1
        r, c, pixels = blobs[0]
        # Centroid (6.5, 11.5) rounds half-to-even -> (6, 12).
        assert (r, c) == (6, 12)
        assert pixels == 16

    def test_two_separate_blobs(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[0:4, 0:4] = True
        mask[10:16, 10:16] = True
        blobs = detect_blobs(mask)
        assert len(blobs) == 2
        assert blobs[0][2] == 36  # largest first
        assert blobs[1][2] == 16

    def test_small_blobs_filtered(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True  # single pixel: noise
        assert detect_blobs(mask, min_pixels=9) == []

    def test_empty_mask(self):
        assert detect_blobs(np.zeros((8, 8), dtype=bool)) == []

    def test_diagonal_not_connected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        blobs = detect_blobs(mask, min_pixels=1)
        assert len(blobs) == 2  # 4-connectivity

    def test_invalid_input(self):
        with pytest.raises(ReproError):
            detect_blobs(np.zeros((4, 4), dtype=np.uint8))


class TestFusion:
    def test_nearby_detections_merge(self):
        tracks = fuse_detections([[(10, 10, 20)], [(12, 11, 25)]])
        assert len(tracks) == 1
        assert tracks[0]["cameras"] == [0, 1]
        assert tracks[0]["row"] == pytest.approx(11.0)

    def test_distant_detections_stay_separate(self):
        tracks = fuse_detections([[(10, 10, 20)], [(50, 50, 25)]])
        assert len(tracks) == 2

    def test_empty_cameras(self):
        assert fuse_detections([[], []]) == []


class TestZoneAlarm:
    def test_inside_and_outside(self):
        tracks = [
            {"row": 5.0, "col": 5.0, "pixels": 10, "cameras": [0]},
            {"row": 90.0, "col": 90.0, "pixels": 10, "cameras": [1]},
        ]
        alarms = zone_alarm(tracks, (0, 0, 40, 40))
        assert len(alarms) == 1 and alarms[0]["cameras"] == [0]

    def test_invalid_zone(self):
        with pytest.raises(ReproError):
            zone_alarm([], (10, 10, 5, 5))


class TestLiveSurveillance:
    def test_end_to_end_alarms_track_targets(self):
        """Two cameras watching the same moving target: the fused tracks
        follow the ground truth, and alarms fire exactly when the target
        is inside the zone."""
        n_cameras = 2
        graph = build_surveillance_graph(n_cameras)
        # Same seed -> both cameras see the same scene (overlapping view).
        videos = [
            VideoSource(n_targets=1, height=60, width=80, seed=33, noise_level=4)
            for _ in range(n_cameras)
        ]
        live = attach_surveillance_kernels(
            graph, videos, zone=(0, 0, 60, 40), threshold=60
        )
        rt = ThreadedRuntime(live, State(n_cameras=n_cameras), op_timeout=30)
        res = rt.run(6)
        half = videos[0].target_size / 2
        for ts in range(1, 6):  # ts 0 is the bootstrap all-motion frame
            truth_r, truth_c = videos[0].positions(ts)[0]
            center = (truth_r + half, truth_c + half)
            tracks = res.meta["outputs"]["tracks"][ts] if "tracks" in res.meta["outputs"] else None
            alarms = res.meta["outputs"]["alarms"][ts]
            # Either channel may be terminal depending on consumers; use alarms.
            in_zone = center[1] < 40  # zone is the left 40 columns
            if in_zone:
                assert alarms, f"expected an alarm at ts={ts}"
                alarm = alarms[0]
                assert abs(alarm["row"] - center[0]) < 20
                assert sorted(alarm["cameras"]) == [0, 1]
            else:
                for alarm in alarms:
                    assert alarm["col"] < 40  # only in-zone alarms

    def test_camera_count_mismatch_rejected(self):
        graph = build_surveillance_graph(2)
        with pytest.raises(ReproError):
            attach_surveillance_kernels(graph, [VideoSource(1, seed=1)])
