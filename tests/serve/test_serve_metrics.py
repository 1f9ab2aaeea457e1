"""Tests for the metric registry the service keeps (counters + latency histograms)."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKET_BOUNDS, Histogram, MetricsRegistry


class TestHistogram:
    def test_observations_land_in_their_buckets(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["buckets"] == {"<=0.01": 1, "<=0.1": 1, "<=1": 1, ">1": 1}
        assert snapshot["max_seconds"] == 5.0
        assert snapshot["sum_seconds"] == pytest.approx(5.555)

    def test_boundary_value_counts_in_its_bucket(self):
        histogram = Histogram(bounds=(0.1, 1.0))
        histogram.observe(0.1)
        assert histogram.snapshot()["buckets"]["<=0.1"] == 1

    def test_empty_snapshot_is_well_formed(self):
        snapshot = Histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_seconds"] == 0.0
        assert len(snapshot["buckets"]) == len(DEFAULT_BUCKET_BOUNDS) + 1

    def test_negative_observations_clamp_to_zero(self):
        histogram = Histogram()
        histogram.observe(-1.0)
        assert histogram.snapshot()["sum_seconds"] == 0.0
        assert histogram.snapshot()["count"] == 1

    def test_bounds_must_be_positive_ascending(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.1, 0.01))
        with pytest.raises(ValueError):
            Histogram(bounds=(0.0, 1.0))


class TestServiceRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.increment("requests")
        metrics.increment("requests", 2)
        assert metrics.counter("requests") == 3
        assert metrics.counter("never-touched") == 0

    def test_snapshot_contains_gauges_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.increment("executions")
        metrics.observe("pass_route", 0.02)
        metrics.observe("pass_route", 0.2)
        snapshot = metrics.snapshot(gauges={"queue_depth": 3})
        assert snapshot["counters"] == {"executions": 1}
        assert snapshot["gauges"] == {"queue_depth": 3}
        assert snapshot["latency_seconds"]["pass_route"]["count"] == 2

    def test_snapshot_is_json_safe(self):
        import json

        metrics = MetricsRegistry()
        metrics.observe("total", 1.5)
        metrics.increment("http_requests")
        encoded = json.dumps(metrics.snapshot(gauges={"in_flight": 0}))
        assert "http_requests" in encoded
