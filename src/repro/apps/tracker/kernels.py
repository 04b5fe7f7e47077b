"""Real NumPy kernels for the five tracker tasks.

Plain functions first (unit-testable in isolation), then the
``compute(state, inputs) -> outputs`` adapters the
:class:`~repro.runtime.threaded.ThreadedRuntime` calls.  Channel names
match the Figure 2 graph built in :mod:`repro.apps.tracker.graph`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.apps.colormodel import _check_image, color_histogram, model_table, quantize
from repro.apps.video import VideoSource
from repro.errors import ReproError
from repro.state import State

__all__ = [
    "change_detection",
    "frame_histogram",
    "target_detection",
    "peak_detection",
    "make_digitizer_kernel",
    "make_change_detection_kernel",
    "make_histogram_kernel",
    "make_target_detection_kernel",
    "make_target_detection_chunk_kernels",
    "make_peak_detection_kernel",
]

_BINS = 8


# ---------------------------------------------------------------------------
# Plain kernels
# ---------------------------------------------------------------------------


def change_detection(
    frame: np.ndarray, previous: Optional[np.ndarray], threshold: int = 40
) -> np.ndarray:
    """T2: motion mask by thresholded frame differencing.

    Returns a boolean (H, W) mask; with no previous frame, everything is
    considered in motion (first-frame bootstrap).  Both frames must be
    (H, W, 3) uint8.
    """
    _check_image(frame, "frame")
    if previous is None:
        return np.ones(frame.shape[:2], dtype=bool)
    _check_image(previous, "previous frame")
    if previous.shape != frame.shape:
        raise ReproError(
            f"frame shapes differ: {previous.shape} vs {frame.shape}"
        )
    # |difference| summed over the three channels is at most 765, so int16
    # holds it: one widening copy, the rest in place.
    diff = frame.astype(np.int16)
    diff -= previous
    np.abs(diff, out=diff)
    total = diff[..., 0] + diff[..., 1]
    total += diff[..., 2]
    return total > threshold


def frame_histogram(frame: np.ndarray, bins: int = _BINS) -> np.ndarray:
    """T3: the whole-frame color histogram used as back-projection prior."""
    return color_histogram(frame, bins)


def target_detection(
    frame: np.ndarray,
    model_histograms: Sequence[np.ndarray],
    frame_hist: np.ndarray,
    motion_mask: Optional[np.ndarray] = None,
    bins: int = _BINS,
) -> np.ndarray:
    """T4: back-projection planes, one per model — shape (M, H, W).

    The motion mask, a boolean (H, W) array, zeroes likelihoods outside
    moving regions ("vision techniques to track and identify people based
    on their motion and clothing color").
    """
    if len(model_histograms) == 0:
        raise ReproError("target_detection needs at least one model")
    # One quantization pass + one batched ratio-table gather for ALL
    # models — bitwise identical to per-model back_projection, but the
    # per-model Python overhead amortizes across the batch.
    table = model_table(model_histograms, frame_hist, bins)
    idx = quantize(frame, bins)
    if motion_mask is not None:
        motion_mask = np.asarray(motion_mask)
        if motion_mask.dtype != bool or motion_mask.shape != idx.shape:
            raise ReproError(
                f"motion mask must be a bool {idx.shape} array, got "
                f"{motion_mask.dtype} {motion_mask.shape}"
            )
        # The mask rides in the index: a still pixel reads column 0, which
        # is zero, so no pass over the (M, H, W) planes multiplies it in.
        # Bitwise equal to that product because the table is finite and
        # non-negative (model_table checks).
        table = np.concatenate((np.zeros((len(table), 1)), table), axis=1)
        idx += 1
        idx *= motion_mask
    return np.take(table, idx, axis=1)


def peak_detection(
    planes: np.ndarray, min_score: float = 0.0
) -> list[tuple[int, int, float]]:
    """T5: per-model location = argmax of its back-projection plane.

    Returns ``[(row, col, score), ...]`` per model; models whose best
    score is below ``min_score`` report ``(-1, -1, score)`` (not present).
    """
    if planes.ndim != 3:
        raise ReproError(f"planes must be (M, H, W), got shape {planes.shape}")
    m, h, w = planes.shape
    if h * w == 0:
        raise ReproError(f"planes have no pixels: shape {planes.shape}")
    flat = planes.reshape(m, h * w)
    args = flat.argmax(axis=1)
    scores = flat[np.arange(m), args]
    out = []
    for arg, score in zip(args.tolist(), scores.tolist()):
        r, c = divmod(arg, w)
        if score < min_score:
            out.append((-1, -1, score))
        else:
            out.append((r, c, score))
    return out


# ---------------------------------------------------------------------------
# ThreadedRuntime compute adapters (channel names of the Figure 2 graph)
# ---------------------------------------------------------------------------


def make_digitizer_kernel(video: VideoSource):
    """T1 compute: emit the next synthetic frame."""
    counter = {"ts": 0}

    def compute(state: State, inputs: dict) -> dict:
        ts = counter["ts"]
        counter["ts"] += 1
        return {"frame": video.frame(ts)}

    return compute


def make_change_detection_kernel(threshold: int = 40):
    """T2 compute: motion mask vs the previously seen frame."""
    memory: dict[str, Optional[np.ndarray]] = {"prev": None}

    def compute(state: State, inputs: dict) -> dict:
        frame = inputs["frame"]
        mask = change_detection(frame, memory["prev"], threshold)
        memory["prev"] = frame
        return {"motion_mask": mask}

    return compute


def make_histogram_kernel(bins: int = _BINS):
    """T3 compute: whole-frame histogram."""

    def compute(state: State, inputs: dict) -> dict:
        return {"histogram": frame_histogram(inputs["frame"], bins)}

    return compute


def make_target_detection_kernel(bins: int = _BINS, work_scale: int = 1):
    """T4 compute (serial): back-projection planes for every model.

    The static ``color_model`` channel supplies the model histograms.
    ``work_scale`` repeats the scan that many times (same output) — a
    calibration knob for benchmarks that want T4's compute/byte ratio to
    match the paper's Table 1 hardware, where the serial scan took
    0.876-6.85 s, rather than the fraction of a millisecond one NumPy
    gather (motion mask folded into its index) takes at 120×160.
    """

    def compute(state: State, inputs: dict) -> dict:
        for _ in range(max(1, work_scale)):
            planes = target_detection(
                inputs["frame"],
                inputs["color_model"],
                inputs["histogram"],
                inputs["motion_mask"],
                bins,
            )
        return {"back_projections": planes}

    return compute


def make_target_detection_chunk_kernels(bins: int = _BINS, work_scale: int = 1):
    """T4 chunk/join pair for data-parallel substrates.

    Returns ``(compute_chunk, compute_join)`` matching the
    :class:`~repro.graph.task.Task` signatures: the chunk kernel scans one
    horizontal band of ``rows[h*i//n : h*(i+1)//n)`` for *every* model, the
    join concatenates the bands back into the (M, H, W) planes — bitwise
    identical to the serial :func:`target_detection` because the whole-frame
    histogram prior is computed upstream (T3) and per-pixel back-projection
    has no cross-row coupling.  ``work_scale`` mirrors
    :func:`make_target_detection_kernel`'s calibration knob.
    """

    def compute_chunk(state: State, inputs: dict, chunk_index: int, n_chunks: int):
        frame = inputs["frame"]
        h = frame.shape[0]
        lo = h * chunk_index // n_chunks
        hi = h * (chunk_index + 1) // n_chunks
        mask = inputs["motion_mask"]
        for _ in range(max(1, work_scale)):
            partial = target_detection(
                frame[lo:hi],
                inputs["color_model"],
                inputs["histogram"],
                mask[lo:hi] if mask is not None else None,
                bins,
            )
        return partial

    def compute_join(state: State, inputs: dict, partials: list) -> dict:
        return {"back_projections": np.concatenate(partials, axis=1)}

    return compute_chunk, compute_join


def make_peak_detection_kernel(min_score: float = 0.0):
    """T5 compute: model locations from the back-projection planes."""

    def compute(state: State, inputs: dict) -> dict:
        return {"model_locations": peak_detection(inputs["back_projections"], min_score)}

    return compute
