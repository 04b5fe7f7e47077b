"""Synthetic video: the camera and scene we substitute for the kiosk's.

Each frame is an ``(H, W, 3)`` uint8 image: a static textured background
plus one colored rectangle per tracked target (a person's shirt, in the
paper's color-tracking terms), moving on a deterministic seeded path.
Ground-truth positions are exposed so tests can check the tracker finds
the targets it should.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

__all__ = ["TargetSpec", "VideoSource"]

#: Distinct, saturated target colors (RGB), enough for the kiosk's 1-8 people.
_PALETTE: tuple[tuple[int, int, int], ...] = (
    (220, 40, 40),
    (40, 200, 40),
    (40, 80, 230),
    (230, 200, 30),
    (200, 40, 200),
    (30, 210, 210),
    (240, 130, 20),
    (140, 90, 240),
)


@dataclass(frozen=True)
class TargetSpec:
    """One synthetic target: color patch of ``size`` moving linearly."""

    index: int
    color: tuple[int, int, int]
    size: int
    x0: float
    y0: float
    vx: float
    vy: float

    def position(self, ts: int, height: int, width: int) -> tuple[int, int]:
        """Top-left (row, col) at timestamp ``ts`` (bouncing off edges)."""
        span_y = max(1, height - self.size)
        span_x = max(1, width - self.size)
        y = self.y0 + self.vy * ts
        x = self.x0 + self.vx * ts
        # Reflect off the borders (triangle wave).
        y = abs((y % (2 * span_y)) - span_y)
        x = abs((x % (2 * span_x)) - span_x)
        return int(y), int(x)


class VideoSource:
    """Deterministic synthetic video with ``n_targets`` colored targets.

    >>> src = VideoSource(n_targets=2, height=60, width=80, seed=7)
    >>> frame = src.frame(0)
    >>> frame.shape, frame.dtype
    ((60, 80, 3), dtype('uint8'))
    """

    def __init__(
        self,
        n_targets: int,
        height: int = 120,
        width: int = 160,
        seed: int = 0,
        target_size: int = 14,
        noise_level: int = 12,
    ) -> None:
        if not 1 <= n_targets <= len(_PALETTE):
            raise ReproError(
                f"n_targets must be in 1..{len(_PALETTE)}, got {n_targets}"
            )
        if target_size >= min(height, width):
            raise ReproError("target_size must be smaller than the frame")
        if noise_level > 255:
            raise ReproError(
                f"noise_level must be at most 255 (it saturates every pixel "
                f"beyond), got {noise_level}"
            )
        self.height = height
        self.width = width
        self.n_targets = n_targets
        self.target_size = target_size
        rng = np.random.default_rng(seed)
        # Static background: low-contrast gray texture, regenerated noise
        # per frame is added on top (models sensor noise for change
        # detection to threshold away).
        self._background = rng.integers(90, 140, size=(height, width, 3)).astype(np.uint8)
        self.noise_level = noise_level
        self._noise_seed = int(rng.integers(0, 2**31 - 1))
        self.targets = tuple(
            TargetSpec(
                index=i,
                color=_PALETTE[i],
                size=target_size,
                x0=float(rng.uniform(0, width - target_size)),
                y0=float(rng.uniform(0, height - target_size)),
                vx=float(rng.uniform(1.0, 4.0) * (1 if rng.random() < 0.5 else -1)),
                vy=float(rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1)),
            )
            for i in range(n_targets)
        )

    def positions(self, ts: int) -> list[tuple[int, int]]:
        """Ground-truth top-left (row, col) of each target at ``ts``."""
        return [t.position(ts, self.height, self.width) for t in self.targets]

    def frame(self, ts: int) -> np.ndarray:
        """Render frame ``ts`` — deterministic for a given source."""
        if ts < 0:
            raise ReproError(f"timestamps are non-negative, got {ts}")
        if self.noise_level > 0:
            rng = np.random.default_rng((self._noise_seed, ts))
            noise = rng.integers(
                -self.noise_level, self.noise_level + 1, size=self._background.shape
            )
            # pixel + noise lies in [-255, 510]: add and clip in int16, in place
            img16 = noise.astype(np.int16)
            img16 += self._background
            np.clip(img16, 0, 255, out=img16)
            img = img16.astype(np.uint8)
        else:
            img = self._background.copy()
        s = self.target_size
        for t in self.targets:
            y, x = t.position(ts, self.height, self.width)
            img[y : y + s, x : x + s] = t.color
        return img

    def model_patch(self, index: int) -> np.ndarray:
        """A clean reference patch of target ``index`` (for its color model)."""
        if not 0 <= index < self.n_targets:
            raise ReproError(f"target index {index} out of range")
        patch = np.empty((self.target_size, self.target_size, 3), dtype=np.uint8)
        patch[:, :] = self.targets[index].color
        return patch

    def __repr__(self) -> str:
        return (
            f"VideoSource({self.n_targets} targets, {self.height}x{self.width})"
        )
