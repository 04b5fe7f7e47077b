"""Frozen tracker-kernel bodies: the oracle the rewritten kernels must match.

These are the bodies of ``VideoSource.frame``, ``quantize``,
``back_projection_multi``, ``change_detection`` and ``target_detection``
as they stood before the kernels were rewritten to skip passes over the
frame (noise added in int16 in place, the difference taken in int16, the
motion mask folded into the gather's index).  They are kept verbatim, only
lifted to module level; ``tests/apps/test_kernel_oracle.py`` holds the
live kernels to them byte for byte.  Do not edit them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.apps.colormodel import _check_image, ratio_weights
from repro.errors import ReproError

__all__ = [
    "video_frame",
    "quantize",
    "back_projection_multi",
    "change_detection",
    "target_detection",
]


def video_frame(self, ts: int) -> np.ndarray:
    """Render frame ``ts`` — deterministic for a given source."""
    if ts < 0:
        raise ReproError(f"timestamps are non-negative, got {ts}")
    img = self._background.copy()
    if self.noise_level > 0:
        rng = np.random.default_rng((self._noise_seed, ts))
        noise = rng.integers(
            -self.noise_level, self.noise_level + 1, size=img.shape
        )
        img = np.clip(img.astype(np.int16) + noise, 0, 255).astype(np.uint8)
    s = self.target_size
    for t in self.targets:
        y, x = t.position(ts, self.height, self.width)
        img[y : y + s, x : x + s] = t.color
    return img


def quantize(image: np.ndarray, bins: int = 8) -> np.ndarray:
    """Map an (H, W, 3) uint8 image to flat bin indices in [0, bins**3)."""
    _check_image(image, "image")
    if not 2 <= bins <= 256:
        raise ReproError(f"bins must be in 2..256, got {bins}")
    q = (image.astype(np.uint32) * bins) >> 8  # per-channel bin, 0..bins-1
    return (q[..., 0] * bins + q[..., 1]) * bins + q[..., 2]


def back_projection_multi(
    image: np.ndarray,
    model_hists: "np.ndarray | list[np.ndarray]",
    frame_hist: np.ndarray | None = None,
    bins: int = 8,
) -> np.ndarray:
    """Back-projection planes of many models in one vectorized pass."""
    models = np.asarray(model_hists, dtype=np.float64)
    if models.ndim == 1:
        models = models[None, :]
    if models.ndim != 2:
        raise ReproError(
            f"model histograms must stack to (M, {bins**3}), got {models.shape}"
        )
    idx = quantize(image, bins)
    return ratio_weights(models, frame_hist, bins)[:, idx]


def change_detection(
    frame: np.ndarray, previous: Optional[np.ndarray], threshold: int = 40
) -> np.ndarray:
    """T2: motion mask by thresholded frame differencing."""
    if previous is None:
        return np.ones(frame.shape[:2], dtype=bool)
    if previous.shape != frame.shape:
        raise ReproError(
            f"frame shapes differ: {previous.shape} vs {frame.shape}"
        )
    diff = np.abs(frame.astype(np.int16) - previous.astype(np.int16)).sum(axis=2)
    return diff > threshold


def target_detection(
    frame: np.ndarray,
    model_histograms: Sequence[np.ndarray],
    frame_hist: np.ndarray,
    motion_mask: Optional[np.ndarray] = None,
    bins: int = 8,
) -> np.ndarray:
    """T4: back-projection planes, one per model — shape (M, H, W)."""
    if len(model_histograms) == 0:
        raise ReproError("target_detection needs at least one model")
    # One quantization pass + one batched ratio-table gather for ALL
    # models — bitwise identical to per-model back_projection, but the
    # per-model Python overhead amortizes across the batch.
    planes = back_projection_multi(frame, model_histograms, frame_hist, bins)
    if motion_mask is not None:
        planes *= motion_mask[None, :, :]
    return planes
