"""Unit tests for the tracker kernels and calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.colormodel import color_histogram
from repro.apps.tracker import kernels
from repro.apps.tracker.calibrate import calibrate_kernels
from repro.apps.video import VideoSource
from repro.errors import ReproError
from repro.state import State


@pytest.fixture(scope="module")
def scene():
    video = VideoSource(n_targets=3, height=48, width=64, seed=9)
    frame = video.frame(1)
    prev = video.frame(0)
    models = [color_histogram(video.model_patch(i)) for i in range(3)]
    return video, frame, prev, models


class TestChangeDetection:
    def test_bootstrap_all_motion(self, scene):
        _, frame, _, _ = scene
        mask = kernels.change_detection(frame, None)
        assert mask.all()

    def test_static_scene_no_motion(self, scene):
        _, frame, _, _ = scene
        assert not kernels.change_detection(frame, frame.copy(), threshold=1).any()

    def test_moving_target_detected(self, scene):
        video, frame, prev, _ = scene
        mask = kernels.change_detection(frame, prev, threshold=60)
        r, c = video.positions(1)[0]
        assert mask.any()

    def test_shape_mismatch(self, scene):
        _, frame, _, _ = scene
        with pytest.raises(ReproError):
            kernels.change_detection(frame, frame[:10])


class TestTargetAndPeakDetection:
    def test_planes_shape(self, scene):
        _, frame, prev, models = scene
        fh = kernels.frame_histogram(frame)
        planes = kernels.target_detection(frame, models, fh)
        assert planes.shape == (3, 48, 64)

    def test_empty_models_rejected(self, scene):
        _, frame, _, _ = scene
        with pytest.raises(ReproError):
            kernels.target_detection(frame, [], kernels.frame_histogram(frame))

    def test_motion_mask_zeroes_static_regions(self, scene):
        _, frame, _, models = scene
        fh = kernels.frame_histogram(frame)
        mask = np.zeros(frame.shape[:2], dtype=bool)
        planes = kernels.target_detection(frame, models, fh, mask)
        assert planes.max() == 0.0

    def test_peaks_land_on_targets(self, scene):
        video, frame, _, models = scene
        fh = kernels.frame_histogram(frame)
        planes = kernels.target_detection(frame, models, fh)
        peaks = kernels.peak_detection(planes)
        for (r, c, score), (tr, tc) in zip(peaks, video.positions(1)):
            assert tr <= r < tr + video.target_size
            assert tc <= c < tc + video.target_size
            assert score > 0.5

    def test_min_score_marks_absent(self, scene):
        _, frame, _, models = scene
        planes = np.zeros((2, 8, 8))
        peaks = kernels.peak_detection(planes, min_score=0.5)
        assert peaks == [(-1, -1, 0.0), (-1, -1, 0.0)]

    def test_bad_planes_shape(self):
        with pytest.raises(ReproError):
            kernels.peak_detection(np.zeros((8, 8)))


class TestKernelAdapters:
    def test_digitizer_advances(self, scene):
        video = VideoSource(n_targets=1, height=32, width=32, seed=1)
        k = kernels.make_digitizer_kernel(video)
        st = State(n_models=1)
        f0 = k(st, {})["frame"]
        f1 = k(st, {})["frame"]
        np.testing.assert_array_equal(f0, video.frame(0))
        np.testing.assert_array_equal(f1, video.frame(1))

    def test_change_detection_remembers_previous(self, scene):
        _, frame, prev, _ = scene
        k = kernels.make_change_detection_kernel(threshold=1)
        st = State(n_models=1)
        first = k(st, {"frame": prev})["motion_mask"]
        assert first.all()  # bootstrap
        second = k(st, {"frame": prev.copy()})["motion_mask"]
        assert not second.any()  # same frame again


class TestCalibration:
    @pytest.fixture(scope="class")
    def calibration(self):
        return calibrate_kernels(
            frame_shape=(32, 48), model_counts=(1, 2, 4), repeats=3
        )

    def test_shapes(self, calibration):
        from repro.graph.cost import ConstantCost, LinearCost

        assert isinstance(calibration.t2, ConstantCost)
        assert isinstance(calibration.t4, LinearCost)
        assert isinstance(calibration.t5, LinearCost)

    def test_t4_grows_with_models(self):
        # These kernels run for tens of microseconds, so one wall-clock fit
        # can come out flat on a busy host: judge the median of five.
        growth = sorted(
            fit.t4(State(n_models=8)) - fit.t4(State(n_models=1))
            for fit in (
                calibrate_kernels(frame_shape=(32, 48), model_counts=(1, 2, 4), repeats=3)
                for _ in range(5)
            )
        )
        assert growth[2] > 0

    def test_t4_dominates_t5(self, calibration):
        m8 = State(n_models=8)
        assert calibration.t4(m8) > calibration.t5(m8)

    def test_costs_dict_usable_in_graph(self, calibration):
        from repro.apps.tracker.graph import build_tracker_graph

        g = build_tracker_graph(costs=calibration.as_costs())
        g.validate()
        assert g.task("T4").cost(State(n_models=2)) > 0

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            calibrate_kernels(repeats=0)
        with pytest.raises(ReproError):
            calibrate_kernels(model_counts=(1,))
