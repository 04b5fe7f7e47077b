"""Unit tests for the metrics registry and its expositions."""

from __future__ import annotations

import gc
import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs import Observability


class TestCounter:
    def test_inc_and_default_child(self):
        reg = MetricsRegistry()
        c = reg.counter("frames_total", "Frames")
        c.inc()
        c.inc(2.5)
        assert ("frames_total", ()) in parse_prometheus_text(reg.to_prometheus_text())
        assert parse_prometheus_text(reg.to_prometheus_text())[("frames_total", ())] == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", labelnames=("kind",))
        c.labels("put").inc(3)
        c.labels("get").inc(5)
        samples = parse_prometheus_text(reg.to_prometheus_text())
        assert samples[("ops_total", (("kind", "put"),))] == 3
        assert samples[("ops_total", (("kind", "get"),))] == 5

    def test_labels_are_memoized(self):
        c = MetricsRegistry().counter("x_total", labelnames=("a",))
        assert c.labels("v") is c.labels("v")
        assert c.labels("v") is c.labels(a="v")

    def test_label_shape_errors(self):
        c = MetricsRegistry().counter("y_total", labelnames=("a", "b"))
        with pytest.raises(MetricsError):
            c.labels("only-one")
        with pytest.raises(MetricsError):
            c.labels("one", b="two")
        with pytest.raises(MetricsError):
            c.labels(a="x", nope="y")


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("period_seconds")
        g.set(1.5)
        g.labels().inc(0.5)
        g.labels().dec(1.0)
        assert parse_prometheus_text(reg.to_prometheus_text())[
            ("period_seconds", ())
        ] == pytest.approx(1.0)


class TestHistogram:
    def test_bucket_counts_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        samples = parse_prometheus_text(reg.to_prometheus_text())
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 3
        assert samples[("lat_seconds_bucket", (("le", "10"),))] == 4
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 5
        assert samples[("lat_seconds_count", ())] == 5
        assert samples[("lat_seconds_sum", ())] == pytest.approx(56.05)

    def test_boundary_is_le_inclusive(self):
        h = MetricsRegistry().histogram("h_s", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.labels().cumulative()[0] == 1

    def test_non_finite_observation_rejected(self):
        h = MetricsRegistry().histogram("h2_s", buckets=(1.0,))
        with pytest.raises(MetricsError):
            h.observe(float("nan"))

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.histogram("bad_s", buckets=())
        with pytest.raises(MetricsError):
            reg.histogram("bad2_s", buckets=(2.0, 1.0))

    def test_default_buckets_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total", labelnames=("x",)) is reg.counter(
            "a_total", labelnames=("x",)
        )

    def test_conflicting_reregistration_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m_total")
        with pytest.raises(MetricsError):
            reg.gauge("m_total")
        with pytest.raises(MetricsError):
            reg.counter("m_total", labelnames=("k",))

    def test_invalid_name_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("bad name")

    def test_snapshot_matches_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("frames_total").inc(7)
        reg.gauge("period_seconds").set(0.25)
        h = reg.histogram("lat_seconds", labelnames=("task",), buckets=(1.0, 2.0))
        h.labels("T1").observe(0.5)
        h.labels("T1").observe(1.5)

        snap = reg.snapshot()
        samples = parse_prometheus_text(reg.to_prometheus_text())

        assert snap["frames_total"]["type"] == "counter"
        assert snap["frames_total"]["series"][0]["value"] == samples[("frames_total", ())]
        assert snap["period_seconds"]["series"][0]["value"] == samples[
            ("period_seconds", ())
        ]
        hseries = snap["lat_seconds"]["series"][0]
        assert hseries["labels"] == {"task": "T1"}
        assert hseries["count"] == samples[("lat_seconds_count", (("task", "T1"),))]
        assert hseries["sum"] == samples[("lat_seconds_sum", (("task", "T1"),))]
        # snapshot counts are per-bucket; prometheus buckets are cumulative
        assert sum(hseries["counts"]) == hseries["count"]
        assert json.loads(json.dumps(snap)) == snap  # JSON-able throughout

    def test_concurrent_updates_lose_nothing(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        h = reg.histogram("v_seconds", buckets=(0.5, 1.0))

        def work():
            for _ in range(2000):
                c.inc()
                h.observe(0.25)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        samples = parse_prometheus_text(reg.to_prometheus_text())
        assert samples[("n_total", ())] == 8000
        assert samples[("v_seconds_count", ())] == 8000


def cyclic_garbage(build) -> int:
    """Objects ``build()``'s result leaves to the cycle collector once it
    is dropped."""
    build()  # lazy imports and first-call set-up out of the count
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def a_family(kind: str):
    reg = MetricsRegistry()
    family = getattr(reg, kind)(f"m_{kind}", "help", ("k",))
    child = family.labels("v")
    if kind == "histogram":
        child.observe(0.5)
    else:
        child.inc()
    return reg, family


class TestNoCycle:
    """A family serializes on its registry's lock but keeps no reference
    to the registry, so a dropped registry goes by reference counting."""

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_a_family_holds_the_registry_lock_and_not_the_registry(self, kind):
        reg, family = a_family(kind)
        assert family._lock is reg._lock
        assert reg not in gc.get_referents(family)
        assert reg not in gc.get_referents(vars(family))
        assert cyclic_garbage(lambda: a_family(kind)) == 0

    def test_a_bare_observability_bundle_leaves_the_cycle_collector_nothing(self):
        assert cyclic_garbage(Observability) == 0


class TestParsePrometheusText:
    def test_round_trip_with_escapes(self):
        reg = MetricsRegistry()
        reg.counter("e_total", labelnames=("msg",)).labels('say "hi"\\now').inc()
        samples = parse_prometheus_text(reg.to_prometheus_text())
        assert samples[("e_total", (("msg", 'say "hi"\\now'),))] == 1

    def test_malformed_lines_rejected(self):
        with pytest.raises(MetricsError):
            parse_prometheus_text("just_a_name_no_value\n")
        with pytest.raises(MetricsError):
            parse_prometheus_text("name{unclosed 1\n")
        with pytest.raises(MetricsError):
            parse_prometheus_text("name not-a-number\n")

    def test_comments_and_blanks_skipped(self):
        assert parse_prometheus_text("# HELP x y\n\n# TYPE x counter\n") == {}

