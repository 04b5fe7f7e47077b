"""The tracker kernels, byte for byte against their frozen bodies.

``kernel_reference_oracle.py`` keeps the bodies the kernels had before
they were rewritten to skip passes over the frame.  Every output here is
compared with ``tobytes()``, dtype and shape; the one allowed difference
is ``quantize``'s dtype, which may be a narrower unsigned integer with
equal values.  The grid covers odd frame sizes, 1-8 targets, both sides of
the uint16 / uint32 index boundary (``bins`` 40 / 41), sensor noise on
and off, every kind of motion mask and the data-parallel chunk kernels
put back together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.colormodel import back_projection_multi, color_histogram, quantize
from repro.apps.tracker import kernels
from repro.apps.video import VideoSource
from repro.state import State

from . import kernel_reference_oracle as oracle

#: (height, width, target_size): an odd tiny frame, the calibration size and
#: the benchmark's.
SIZES = [(7, 9, 3), (32, 48, 14), (120, 160, 14)]
SEEDS = [0, 1, 7]
#: 41 and 256 take quantize's uint32 path; 256 is left out of every test that
#: builds a histogram (16.7 M cells, 134 MB a model).
BINS = [2, 8, 16, 40, 41, 256]
TABLE_BINS = [b for b in BINS if b != 256]
MASKS = ["none", "all_false", "all_true", "random"]


def same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def video_for(size, seed: int, n_targets: int = 3, noise_level: int = 12) -> VideoSource:
    h, w, target = size
    return VideoSource(n_targets=n_targets, height=h, width=w, seed=seed,
                       target_size=target, noise_level=noise_level)


def full_range_image(h: int, w: int, seed: int) -> np.ndarray:
    """Uniform uint8 pixels with 0 and 255 in every channel: every bin edge."""
    img = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    img[0, 0] = 0
    img[-1, -1] = 255
    return img


def mask_for(kind: str, h: int, w: int, seed: int):
    if kind == "none":
        return None
    if kind == "all_false":
        return np.zeros((h, w), dtype=bool)
    if kind == "all_true":
        return np.ones((h, w), dtype=bool)
    return np.random.default_rng(seed + 100).random((h, w)) < 0.5


class TestFrame:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_targets", [1, 4, 8])
    @pytest.mark.parametrize("noise_level", [0, 12])
    def test_frames_equal_the_oracle(self, size, seed, n_targets, noise_level):
        video = video_for(size, seed, n_targets, noise_level)
        for ts in (0, 1, 2, 17):
            same(video.frame(ts), oracle.video_frame(video, ts))

    def test_extreme_noise_saturates_the_same(self):
        video = video_for((32, 48, 14), 3, noise_level=255)
        for ts in range(3):
            same(video.frame(ts), oracle.video_frame(video, ts))


class TestQuantize:
    @pytest.mark.parametrize("bins", BINS)
    @pytest.mark.parametrize("size", SIZES)
    def test_values_equal_the_oracle(self, bins, size):
        h, w, _ = size
        for image in (video_for(size, 1).frame(5), full_range_image(h, w, bins)):
            got, want = quantize(image, bins), oracle.quantize(image, bins)
            assert got.dtype.kind == "u"
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bins", BINS)
    def test_narrow_only_while_the_sentinel_fits(self, bins):
        idx = quantize(full_range_image(7, 9, 0), bins)
        assert idx.dtype == (np.uint16 if bins <= 40 else np.uint32)
        assert int(idx.max()) + 1 <= np.iinfo(idx.dtype).max

    @pytest.mark.parametrize("bins", TABLE_BINS)
    def test_histograms_equal_the_oracle(self, bins):
        image = full_range_image(32, 48, bins)
        counts = np.bincount(oracle.quantize(image, bins).ravel(), minlength=bins**3)
        want = counts.astype(np.float64) / counts.sum()
        same(color_histogram(image, bins), want)
        same(kernels.frame_histogram(image, bins), want)


class TestChangeDetection:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("threshold", [0, 40, 60, 764, 765, 40.5])
    def test_masks_equal_the_oracle(self, size, seed, threshold):
        video = video_for(size, seed)
        previous = None
        for ts in range(4):
            frame = video.frame(ts)
            same(kernels.change_detection(frame, previous, threshold),
                 oracle.change_detection(frame, previous, threshold))
            previous = frame

    def test_largest_difference(self):
        black = np.zeros((7, 9, 3), dtype=np.uint8)
        white = np.full((7, 9, 3), 255, dtype=np.uint8)
        for a, b in ((black, white), (white, black)):
            for threshold in (0, 764, 765, 10**6, -(10**6)):
                same(kernels.change_detection(a, b, threshold),
                     oracle.change_detection(a, b, threshold))


def models_for(video: VideoSource, n: int, bins: int) -> list[np.ndarray]:
    return [color_histogram(video.model_patch(i % video.n_targets), bins)
            for i in range(n)]


class TestTargetDetection:
    @pytest.mark.parametrize("bins", TABLE_BINS)
    @pytest.mark.parametrize("mask_kind", MASKS)
    @pytest.mark.parametrize("n_models", [1, 3, 8])
    @pytest.mark.parametrize("size", SIZES[:2])
    def test_planes_equal_the_oracle(self, bins, mask_kind, n_models, size):
        h, w, _ = size
        video = video_for(size, n_models, n_targets=n_models)
        models = models_for(video, n_models, bins)
        for frame in (video.frame(3), full_range_image(h, w, n_models)):
            frame_hist = color_histogram(frame, bins)
            mask = mask_for(mask_kind, h, w, bins)
            for prior in (frame_hist, None):
                same(kernels.target_detection(frame, models, prior, mask, bins),
                     oracle.target_detection(frame, models, prior, mask, bins))
            same(back_projection_multi(frame, models, frame_hist, bins),
                 oracle.back_projection_multi(frame, models, frame_hist, bins))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_models", range(1, 9))
    def test_benchmark_frames_equal_the_oracle(self, seed, n_models):
        """The live workloads' inputs: 120×160, 8 bins, T2's own masks."""
        video = video_for(SIZES[2], seed, n_targets=n_models)
        models = models_for(video, n_models, 8)
        previous = None
        for ts in range(3):
            frame = video.frame(ts)
            mask = oracle.change_detection(frame, previous)
            hist = color_histogram(frame)
            same(kernels.target_detection(frame, models, hist, mask),
                 oracle.target_detection(frame, models, hist, mask))
            previous = frame

    def test_single_histogram_stacks_to_one_plane(self):
        video = video_for(SIZES[0], 2)
        frame = video.frame(1)
        model = color_histogram(video.model_patch(0))
        mask = mask_for("random", 7, 9, 2)
        same(kernels.target_detection(frame, model[None, :], None, mask),
             oracle.target_detection(frame, model[None, :], None, mask))
        same(back_projection_multi(frame, model),
             oracle.back_projection_multi(frame, model))

    def test_peaks_of_equal_planes_are_equal(self):
        video = video_for(SIZES[2], 5, n_targets=6)
        models = models_for(video, 6, 8)
        frame, previous = video.frame(4), video.frame(3)
        mask = oracle.change_detection(frame, previous)
        hist = color_histogram(frame)
        assert kernels.peak_detection(
            kernels.target_detection(frame, models, hist, mask)
        ) == kernels.peak_detection(oracle.target_detection(frame, models, hist, mask))


class TestChunksReassembled:
    """The T4 chunk kernels, joined, against the serial oracle."""

    @pytest.fixture(scope="class")
    def inputs(self):
        video = video_for((37, 41, 9), 11, n_targets=5)
        frame, previous = video.frame(2), video.frame(1)
        models = models_for(video, 5, 8)
        return {
            "frame": frame,
            "motion_mask": oracle.change_detection(frame, previous),
            "histogram": color_histogram(frame),
            "color_model": models,
        }

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7])
    @pytest.mark.parametrize("masked", [True, False])
    def test_target_detection_chunks(self, inputs, n_chunks, masked):
        inputs = dict(inputs, motion_mask=inputs["motion_mask"] if masked else None)
        chunk, join = kernels.make_target_detection_chunk_kernels()
        st = State(n_models=5)
        parts = [chunk(st, inputs, i, n_chunks) for i in range(n_chunks)]
        same(join(st, inputs, parts)["back_projections"],
             oracle.target_detection(inputs["frame"], inputs["color_model"],
                                     inputs["histogram"], inputs["motion_mask"]))
