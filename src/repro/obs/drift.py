"""Cost-model drift detection: EWMA + threshold + hysteresis.

§3.4's machinery assumes regime changes are *detectable* and *infrequent*.
Cost-model drift — the live execution times walking away from the measured
costs the active :class:`~repro.core.table.ScheduleTable` was built from —
is exactly such a regime change, provided the detector is engineered to
fire rarely and confidently:

* an **EWMA** of observed durations smooths per-frame noise;
* a **relative-error threshold** defines "drifted" (the schedule is built
  from costs, so only *relative* error distorts it);
* **confirmation** requires ``confirm`` consecutive breaching
  observations (the debounce of :class:`~repro.core.regime.RegimeDetector`);
* **hysteresis** disarms a fired key until its error falls back below
  ``rearm_ratio * threshold`` — one drifted regime yields one signal, not
  a signal per frame — plus a ``cooldown`` sample floor between firings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.errors import ReproError

__all__ = ["DriftError", "Ewma", "DriftDetected", "DriftDetector"]

_EPS = 1e-12


class DriftError(ReproError):
    """Raised on invalid drift-detector configuration."""


class Ewma:
    """Exponentially weighted moving average, seeded by the first sample."""

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise DriftError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.count = 0

    def update(self, x: float) -> float:
        if self.value is None:
            self.value = float(x)
        else:
            self.value += self.alpha * (x - self.value)
        self.count += 1
        return self.value

    def __repr__(self) -> str:
        return f"Ewma(alpha={self.alpha:g}, value={self.value}, n={self.count})"


@dataclass(frozen=True)
class DriftDetected:
    """A confirmed divergence between modeled and observed cost.

    ``key`` identifies what drifted — the calibrator uses
    ``("exec", task, variant, node_class)`` and
    ``("comm", datatype, tier)`` tuples.
    """

    time: float
    key: tuple
    modeled: float
    observed: float   # EWMA of observations at confirmation time
    rel_error: float
    samples: int      # observations of this key so far

    def summary(self) -> str:
        kind, *rest = self.key
        return (
            f"[{self.time:.3f}s] {kind} drift on {'/'.join(map(str, rest))}: "
            f"modeled {self.modeled:.4g}s, observed {self.observed:.4g}s "
            f"({self.rel_error:+.0%}, n={self.samples})"
        )


class _KeyState:
    __slots__ = ("ewma", "samples", "breaches", "armed", "since_fire")

    def __init__(self, alpha: float) -> None:
        self.ewma = Ewma(alpha)
        self.samples = 0
        self.breaches = 0
        self.armed = True
        self.since_fire = 0


class DriftDetector:
    """Per-key drift detection over (modeled, observed) cost pairs.

    Parameters
    ----------
    threshold:
        Relative error that counts as a breach (0.25 = 25% off).
    confirm:
        Consecutive breaching observations needed to fire.
    min_samples:
        Observations of a key required before it may fire at all.
    alpha:
        EWMA smoothing factor for observed durations.
    rearm_ratio:
        Hysteresis: a fired key re-arms only when its relative error drops
        below ``rearm_ratio * threshold`` (e.g. after recalibration
        updates the model).  Must be < 1.
    cooldown:
        Minimum observations of a key between two firings, even once
        re-armed — the "infrequent" guarantee.
    """

    def __init__(
        self,
        threshold: float = 0.25,
        confirm: int = 3,
        min_samples: int = 3,
        alpha: float = 0.3,
        rearm_ratio: float = 0.5,
        cooldown: int = 10,
    ) -> None:
        if threshold <= 0:
            raise DriftError(f"threshold must be positive, got {threshold}")
        if confirm < 1 or min_samples < 1:
            raise DriftError("confirm and min_samples must be >= 1")
        if not 0.0 <= rearm_ratio < 1.0:
            raise DriftError(f"rearm_ratio must be in [0, 1), got {rearm_ratio}")
        if cooldown < 0:
            raise DriftError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.confirm = confirm
        self.min_samples = min_samples
        self.alpha = alpha
        self.rearm_ratio = rearm_ratio
        self.cooldown = cooldown
        self._keys: dict[Hashable, _KeyState] = {}
        self.detections: list[DriftDetected] = []

    def rel_error(self, modeled: float, observed: float) -> float:
        """Signed relative error of ``observed`` against ``modeled``."""
        return (observed - modeled) / max(abs(modeled), _EPS)

    def observe(
        self, key: tuple, modeled: float, observed: float, time: float = 0.0
    ) -> Optional[DriftDetected]:
        """Feed one (modeled, observed) pair; returns a signal iff confirmed."""
        st = self._keys.get(key)
        if st is None:
            st = self._keys[key] = _KeyState(self.alpha)
        st.samples += 1
        st.since_fire += 1
        smoothed = st.ewma.update(observed)
        err = self.rel_error(modeled, smoothed)
        breach = abs(err) > self.threshold
        if not st.armed:
            # Hysteresis: stay quiet until the error decays back under the
            # re-arm band (a recalibration shrinks it to ~0 instantly).
            if abs(err) < self.threshold * self.rearm_ratio:
                st.armed = True
                st.breaches = 0
            return None
        if not breach:
            st.breaches = 0
            return None
        st.breaches += 1
        if (
            st.breaches < self.confirm
            or st.samples < self.min_samples
            or (self.detections and st.since_fire <= self.cooldown and st.since_fire < st.samples)
        ):
            return None
        signal = DriftDetected(
            time=time,
            key=tuple(key),
            modeled=modeled,
            observed=smoothed,
            rel_error=err,
            samples=st.samples,
        )
        self.detections.append(signal)
        st.armed = False
        st.breaches = 0
        st.since_fire = 0
        return signal

    @property
    def detection_count(self) -> int:
        return len(self.detections)

    def __repr__(self) -> str:
        return (
            f"DriftDetector(threshold={self.threshold:g}, confirm={self.confirm}, "
            f"keys={len(self._keys)}, detections={len(self.detections)})"
        )
