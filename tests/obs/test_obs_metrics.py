"""Tests for the unified metrics registry (:mod:`repro.obs.metrics`)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    prometheus_name,
)


class TestHistogram:
    def test_observations_land_in_their_bucket(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)  # overflow
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.max == 5.0

    def test_snapshot_buckets_are_per_bucket_not_cumulative(self):
        histogram = Histogram(bounds=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.05)
        snap = histogram.snapshot()
        assert snap["buckets"] == {"<=0.01": 1, "<=0.1": 1, ">0.1": 0}
        assert snap["count"] == 2
        assert snap["mean_seconds"] == pytest.approx(0.0275, abs=1e-6)

    def test_cumulative_buckets_end_in_inf_total(self):
        histogram = Histogram(bounds=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(50.0)
        assert histogram.cumulative_buckets() == [
            ("0.01", 1),
            ("0.1", 2),
            ("+Inf", 3),
        ]

    def test_negative_observations_clamp_to_zero(self):
        histogram = Histogram()
        histogram.observe(-1.0)
        assert histogram.total == 0.0
        assert histogram.counts[0] == 1

    def test_bounds_must_be_positive_and_ascending(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.1, 0.01))
        with pytest.raises(ValueError):
            Histogram(bounds=(0.0, 0.1))

    def test_default_bounds_cover_sub_millisecond_to_seconds(self):
        assert DEFAULT_BUCKET_BOUNDS[0] <= 0.001
        assert DEFAULT_BUCKET_BOUNDS[-1] >= 5.0


class TestMetricsRegistry:
    def test_counters_accumulate_and_default_to_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("requests") == 0
        registry.increment("requests")
        registry.increment("requests", 4)
        assert registry.counter("requests") == 5

    def test_observe_creates_histograms_lazily(self):
        registry = MetricsRegistry()
        assert registry.histogram("latency") is None
        registry.observe("latency", 0.25)
        assert registry.histogram("latency").count == 1

    def test_snapshot_merges_extra_counters_additively(self):
        registry = MetricsRegistry()
        registry.increment("cache.evictions", 2)
        snap = registry.snapshot(
            gauges={"queue_depth": 3},
            extra_counters={"cache.evictions": 5, "cache.hits": 1},
        )
        assert snap["counters"] == {"cache.evictions": 7, "cache.hits": 1}
        assert snap["gauges"] == {"queue_depth": 3}

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.increment("a")
        registry.observe("b", 0.1)
        json.dumps(registry.snapshot())  # must not raise


class TestPrometheusExposition:
    def test_counters_render_with_total_suffix_and_type(self):
        registry = MetricsRegistry()
        registry.increment("http.requests", 3)
        text = registry.prometheus()
        assert "# TYPE repro_http_requests_total counter" in text
        assert "repro_http_requests_total 3" in text
        assert text.endswith("\n")

    def test_histograms_render_cumulative_le_buckets(self):
        registry = MetricsRegistry()
        registry.observe("compile.latency", 0.002)
        registry.observe("compile.latency", 0.3)
        text = registry.prometheus()
        assert "# TYPE repro_compile_latency_seconds histogram" in text
        assert 'repro_compile_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_compile_latency_seconds_count 2" in text
        assert "repro_compile_latency_seconds_sum" in text
        # buckets must be monotone non-decreasing in declaration order
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_compile_latency_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)

    def test_gauges_and_bools_render(self):
        registry = MetricsRegistry()
        text = registry.prometheus(gauges={"accepting": True, "queue_depth": 2})
        assert "# TYPE repro_accepting gauge" in text
        assert "repro_accepting 1" in text
        assert "repro_queue_depth 2" in text

    def test_every_sample_line_parses(self):
        """Minimal exposition-format check: `name{labels} value` per line."""
        import re

        registry = MetricsRegistry()
        registry.increment("jobs.completed", 7)
        registry.observe("wait", 0.02)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? -?[0-9.+eInf]+$"
        )
        for line in registry.prometheus(gauges={"depth": 0}).splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
            else:
                assert sample.match(line), line


class TestPrometheusName:
    def test_dots_and_dashes_become_underscores(self):
        assert prometheus_name("cache.disk-hits") == "repro_cache_disk_hits"

    def test_leading_digit_gets_guard(self):
        assert prometheus_name("9lives", prefix="") == "_9lives"

    def test_prefix_is_configurable(self):
        assert prometheus_name("x", prefix="acme_") == "acme_x"
