"""Color indexing after Swain & Ballard (the paper's tracking basis [14]).

Three primitives:

* :func:`color_histogram` — a normalized histogram over quantized RGB
  space (``bins**3`` cells);
* :func:`histogram_intersection` — Swain–Ballard similarity of two
  histograms;
* :func:`back_projection` — per-pixel likelihood that the pixel belongs
  to a model histogram ("back projection" is the paper's name for the
  target-detection intermediate, the Back Projections channel).

All functions are vectorized NumPy; ``back_projection`` is the
computational core of task T4.  They make as few passes over the frame
as they can: :func:`quantize` works in uint16 while the bin indices fit,
and T4 (:func:`repro.apps.tracker.kernels.target_detection`) folds its
motion mask into the index of its one ``np.take`` gather rather than
multiplying the (M, H, W) planes afterwards.  At 120×160 with six models
T3 (quantize + bincount) takes about 0.1 ms and T4 about 0.2 ms on a
2-CPU x86 host.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

__all__ = [
    "quantize",
    "color_histogram",
    "histogram_intersection",
    "back_projection",
    "back_projection_multi",
    "model_table",
    "ratio_weights",
]


def _check_image(image: np.ndarray, name: str) -> None:
    if image.ndim != 3 or image.shape[2] != 3:
        raise ReproError(f"{name} must be (H, W, 3), got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ReproError(f"{name} must be uint8, got {image.dtype}")


def quantize(image: np.ndarray, bins: int = 8) -> np.ndarray:
    """Map an (H, W, 3) uint8 image to flat bin indices in [0, bins**3).

    The indices are uint16 while ``bins**3`` and one more index (T4's zero
    column) fit in it, that is for ``bins <= 40``, and uint32 above.
    """
    _check_image(image, "image")
    if not 2 <= bins <= 256:
        raise ReproError(f"bins must be in 2..256, got {bins}")
    dtype = np.uint16 if bins**3 < np.iinfo(np.uint16).max else np.uint32
    q = np.multiply(image, bins, dtype=dtype)
    q >>= 8  # per-channel bin, 0..bins-1
    idx = q[..., 0] * bins
    idx += q[..., 1]
    idx *= bins
    idx += q[..., 2]
    return idx


def color_histogram(image: np.ndarray, bins: int = 8) -> np.ndarray:
    """Normalized color histogram (sums to 1) over quantized RGB space."""
    idx = quantize(image, bins)
    hist = np.bincount(idx.ravel(), minlength=bins**3).astype(np.float64)
    total = hist.sum()
    if total == 0:
        raise ReproError("empty image")
    return hist / total


def histogram_intersection(h1: np.ndarray, h2: np.ndarray) -> float:
    """Swain–Ballard intersection: sum of element-wise minima, in [0, 1]."""
    if h1.shape != h2.shape:
        raise ReproError(f"histogram shapes differ: {h1.shape} vs {h2.shape}")
    return float(np.minimum(h1, h2).sum())


def ratio_weights(
    model_hist: np.ndarray,
    frame_hist: np.ndarray | None,
    bins: int = 8,
) -> np.ndarray:
    """Per-bin lookup table ``min(model/frame, 1)`` of one or many models.

    ``model_hist`` may be a single ``(bins**3,)`` histogram or a stacked
    ``(M, bins**3)`` batch; the returned table has the same leading shape.
    Computing the table separately from the pixel gather lets callers
    amortize the (expensive) per-pixel quantization across models.
    """
    cells = bins**3
    if model_hist.shape[-1] != cells:
        raise ReproError(
            f"model histogram must have {cells} cells, got {model_hist.shape}"
        )
    if frame_hist is None:
        peak = model_hist.max(axis=-1, keepdims=True)
        return model_hist / np.where(peak > 0, peak, 1.0)
    if frame_hist.shape != (cells,):
        raise ReproError("frame and model histograms differ in shape")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(frame_hist > 0, model_hist / frame_hist, 0.0)
    return np.minimum(ratio, 1.0)


def back_projection(
    image: np.ndarray,
    model_hist: np.ndarray,
    frame_hist: np.ndarray | None = None,
    bins: int = 8,
) -> np.ndarray:
    """Per-pixel model likelihood (ratio histogram back-projection).

    Each pixel receives ``min(model[bin]/frame[bin], 1)``: high where the
    pixel's color is characteristic of the model relative to the frame.
    With ``frame_hist=None`` the plain model histogram value is used.
    Returns a float64 (H, W) map in [0, 1].
    """
    idx = quantize(image, bins)
    if model_hist.ndim != 1:
        raise ReproError(
            f"model histogram must have {bins**3} cells, got {model_hist.shape}"
        )
    return ratio_weights(model_hist, frame_hist, bins)[idx]


def back_projection_multi(
    image: np.ndarray,
    model_hists: "np.ndarray | list[np.ndarray]",
    frame_hist: np.ndarray | None = None,
    bins: int = 8,
) -> np.ndarray:
    """Back-projection planes of many models in one vectorized pass.

    Quantizes the image once and gathers every model's ratio table in a
    single ``np.take`` along the cell axis, instead of re-quantizing per
    model — the hot-path batching behind task T4, which folds its motion
    mask into this same gather (a still pixel indexes an extra zero
    column).  Returns float64 ``(M, H, W)`` planes, bitwise identical to
    stacking :func:`back_projection` per model.
    """
    return np.take(
        model_table(model_hists, frame_hist, bins), quantize(image, bins), axis=1
    )


def model_table(
    model_hists: "np.ndarray | list[np.ndarray]",
    frame_hist: np.ndarray | None = None,
    bins: int = 8,
) -> np.ndarray:
    """The ``(M, bins**3)`` ratio table of one or many model histograms.

    Every cell of every model must be finite and non-negative: a
    histogram is, and the table then is too, which is what lets T4 zero
    a still pixel by pointing it at a zero column.
    """
    models = np.asarray(model_hists, dtype=np.float64)
    if models.ndim == 1:
        models = models[None, :]
    if models.ndim != 2:
        raise ReproError(
            f"model histograms must stack to (M, {bins**3}), got {models.shape}"
        )
    if models.size and not (models.min() >= 0.0 and np.isfinite(models.max())):
        raise ReproError("model histograms must be finite and non-negative")
    return ratio_weights(models, frame_hist, bins)
