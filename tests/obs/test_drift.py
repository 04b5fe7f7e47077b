"""Unit tests for EWMA drift detection: fire, hysteresis, cooldown."""

from __future__ import annotations

import pytest

from repro.obs.drift import DriftDetector, DriftError, Ewma

KEY = ("exec", "T4", "serial", "nominal")


class TestEwma:
    def test_seeded_by_first_sample(self):
        e = Ewma(alpha=0.5)
        assert e.update(10.0) == 10.0

    def test_moves_toward_new_samples(self):
        e = Ewma(alpha=0.5)
        e.update(0.0)
        assert e.update(10.0) == 5.0
        assert e.update(10.0) == 7.5

    def test_alpha_validated(self):
        with pytest.raises(DriftError):
            Ewma(alpha=0.0)
        with pytest.raises(DriftError):
            Ewma(alpha=1.5)


class TestDriftDetector:
    def detector(self, **kw):
        defaults = dict(threshold=0.25, confirm=3, min_samples=3, alpha=1.0,
                        rearm_ratio=0.5, cooldown=0)
        defaults.update(kw)
        return DriftDetector(**defaults)

    def test_no_fire_below_threshold(self):
        det = self.detector()
        for _ in range(10):
            assert det.observe(KEY, modeled=1.0, observed=1.1) is None
        assert det.detection_count == 0

    def test_fires_after_consecutive_breaches(self):
        det = self.detector()
        assert det.observe(KEY, 1.0, 2.0, time=1.0) is None
        assert det.observe(KEY, 1.0, 2.0, time=2.0) is None
        signal = det.observe(KEY, 1.0, 2.0, time=3.0)
        assert signal is not None
        assert signal.key == KEY
        assert signal.rel_error == pytest.approx(1.0)
        assert signal.time == 3.0
        assert "drift on T4/serial/nominal" in signal.summary()

    def test_breach_streak_resets_on_good_sample(self):
        det = self.detector()
        det.observe(KEY, 1.0, 2.0)
        det.observe(KEY, 1.0, 2.0)
        det.observe(KEY, 1.0, 1.0)  # streak broken
        assert det.observe(KEY, 1.0, 2.0) is None
        assert det.detection_count == 0

    def test_min_samples_gate(self):
        det = self.detector(confirm=1, min_samples=5)
        for _ in range(4):
            assert det.observe(KEY, 1.0, 2.0) is None
        assert det.observe(KEY, 1.0, 2.0) is not None

    def test_hysteresis_one_regime_one_signal(self):
        det = self.detector()
        for _ in range(3):
            det.observe(KEY, 1.0, 2.0)
        assert det.detection_count == 1
        # the drifted regime persists: disarmed key stays silent
        for _ in range(20):
            assert det.observe(KEY, 1.0, 2.0) is None
        assert det.detection_count == 1

    def test_rearm_after_error_collapses(self):
        det = self.detector()
        for _ in range(3):
            det.observe(KEY, 1.0, 2.0)
        # recalibration fixes the model: error under rearm band -> re-arm
        for _ in range(3):
            assert det.observe(KEY, 2.0, 2.0) is None
        # a second genuine drift fires again
        for _ in range(3):
            det.observe(KEY, 2.0, 8.0)
        assert det.detection_count == 2

    def test_cooldown_spaces_firings(self):
        det = self.detector(cooldown=50)
        for _ in range(3):
            det.observe(KEY, 1.0, 2.0)
        # collapse error to re-arm, then drift again immediately
        for _ in range(3):
            det.observe(KEY, 2.0, 2.0)
        for _ in range(3):
            assert det.observe(KEY, 2.0, 8.0) is None  # inside cooldown
        assert det.detection_count == 1

    def test_keys_are_independent(self):
        det = self.detector()
        other = ("exec", "T2", "serial", "nominal")
        for _ in range(3):
            det.observe(KEY, 1.0, 2.0)
            det.observe(other, 1.0, 1.0)
        assert det.detection_count == 1

    def test_negative_drift_detected_too(self):
        det = self.detector()
        for _ in range(3):
            det.observe(KEY, 1.0, 0.5)
        assert det.detection_count == 1
        assert det.detections[0].rel_error == pytest.approx(-0.5)

    def test_config_validation(self):
        with pytest.raises(DriftError):
            DriftDetector(threshold=0.0)
        with pytest.raises(DriftError):
            DriftDetector(confirm=0)
        with pytest.raises(DriftError):
            DriftDetector(rearm_ratio=1.0)
        with pytest.raises(DriftError):
            DriftDetector(cooldown=-1)
