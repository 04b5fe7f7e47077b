"""Hostile inputs to the tracker kernels fail typed.

T4 folds the motion mask into its gather: a still pixel reads a zero
column instead of having its likelihood multiplied by ``False``.  That
equals the product only for a boolean mask over the frame and a ratio
table that is finite and non-negative, so the kernels check both; every
other malformed input a kernel could once cast, broadcast or trip numpy
on is a :class:`~repro.errors.ReproError` as well.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.colormodel import back_projection_multi, color_histogram
from repro.apps.tracker import kernels
from repro.apps.video import VideoSource
from repro.errors import ReproError


@pytest.fixture(scope="module")
def scene():
    video = VideoSource(n_targets=2, height=24, width=32, seed=4, target_size=6)
    frame = video.frame(1)
    models = [color_histogram(video.model_patch(i)) for i in range(2)]
    return frame, video.frame(0), models, color_histogram(frame)


class TestChangeDetectionFrames:
    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float64, np.uint16])
    def test_non_uint8_frame(self, scene, dtype):
        frame, previous, _, _ = scene
        with pytest.raises(ReproError, match="uint8"):
            kernels.change_detection(frame.astype(dtype), previous)
        with pytest.raises(ReproError, match="uint8"):
            kernels.change_detection(frame, previous.astype(dtype))

    def test_non_uint8_frame_without_previous(self, scene):
        frame, _, _, _ = scene
        with pytest.raises(ReproError, match="uint8"):
            kernels.change_detection(frame.astype(np.float32), None)

    @pytest.mark.parametrize("shape", [(24, 32), (24, 32, 4), (24, 32, 1), (2, 24, 32, 3)])
    def test_not_h_w_3(self, shape):
        frame = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ReproError, match=r"\(H, W, 3\)"):
            kernels.change_detection(frame, frame.copy())


class TestMotionMask:
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8, np.int64])
    def test_non_bool_mask(self, scene, dtype):
        frame, _, models, hist = scene
        mask = np.full(frame.shape[:2], 0.5).astype(dtype)
        with pytest.raises(ReproError, match="motion mask"):
            kernels.target_detection(frame, models, hist, mask)

    @pytest.mark.parametrize("shape", [(24, 31), (1, 32), (24,), (1, 24, 32)])
    def test_wrong_shape_mask(self, scene, shape):
        frame, _, models, hist = scene
        with pytest.raises(ReproError, match="motion mask"):
            kernels.target_detection(frame, models, hist, np.ones(shape, dtype=bool))

    def test_nested_list_of_floats(self, scene):
        frame, _, models, hist = scene
        mask = np.ones(frame.shape[:2]).tolist()
        with pytest.raises(ReproError, match="motion mask"):
            kernels.target_detection(frame, models, hist, mask)


class TestModelHistograms:
    @pytest.mark.parametrize("bad", [-1e-12, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("with_mask", [True, False])
    def test_negative_or_non_finite_cell(self, scene, bad, with_mask):
        frame, previous, models, hist = scene
        poisoned = models[1].copy()
        poisoned[37] = bad
        mask = kernels.change_detection(frame, previous) if with_mask else None
        with pytest.raises(ReproError, match="finite and non-negative"):
            kernels.target_detection(frame, [models[0], poisoned], hist, mask)
        with pytest.raises(ReproError, match="finite and non-negative"):
            back_projection_multi(frame, [models[0], poisoned], hist)


class TestPeakDetection:
    @pytest.mark.parametrize("shape", [(3, 0, 5), (3, 5, 0), (1, 0, 0)])
    def test_planes_with_no_pixels(self, shape):
        with pytest.raises(ReproError, match="no pixels"):
            kernels.peak_detection(np.zeros(shape))

    def test_no_models_is_no_locations(self):
        assert kernels.peak_detection(np.zeros((0, 4, 5))) == []


class TestVideoNoise:
    def test_noise_beyond_a_pixel_range(self):
        with pytest.raises(ReproError, match="noise_level"):
            VideoSource(n_targets=1, height=24, width=32, target_size=6,
                        noise_level=256)
