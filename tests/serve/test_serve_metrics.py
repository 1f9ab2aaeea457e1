"""Tests for the metric registry the service keeps (counters + latency histograms)."""

import asyncio
import concurrent.futures
import threading

import pytest

from repro.api.cache import CompileCache
from repro.obs.metrics import DEFAULT_BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.serve import ServeConfig
from tests.serve.test_service import (
    HELD_SEED,
    make_body,
    post,
    run,
    until,
    with_held_service,
    with_service,
)


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


class TestMetricsEndpoint:
    def test_disk_statistics_are_read_off_the_event_loop(self, tmp_path):
        entered, release = threading.Event(), threading.Event()

        async def scenario(service):
            disk_stats = service.cache.disk_stats

            def held():
                entered.set()
                release.wait(timeout=2)
                return disk_stats()

            service.cache.disk_stats = held
            metrics = asyncio.ensure_future(service.handle("GET", "/metrics"))
            await until(entered.is_set)
            healthz = await service.handle("GET", "/healthz")
            answered_first = not metrics.done()
            release.set()
            return healthz, answered_first, await metrics

        healthz, answered_first, metrics = run(
            with_service(ServeConfig(cache_dir=str(tmp_path)), scenario)
        )
        assert healthz.status == 200
        assert answered_first
        assert metrics.status == 200
        assert set(metrics.body) == {
            "cache", "counters", "gauges", "latency_seconds", "trace_id", "version"
        }
        assert metrics.body["cache"].keys() == CompileCache(directory=tmp_path).info().keys()
        assert metrics.body["cache"]["disk_dir"] == str(tmp_path)

    def test_a_scrape_answers_while_every_compile_thread_is_busy(self, tmp_path):
        # Compiles run on the service's own threads, so the scrape's disk
        # read never queues behind them, even on a one-thread default executor.
        async def scenario(service):
            asyncio.get_running_loop().set_default_executor(
                concurrent.futures.ThreadPoolExecutor(1)
            )
            held = post(service, make_body(seed=HELD_SEED))
            await until(service.holding.is_set)
            metrics = await asyncio.wait_for(service.handle("GET", "/metrics"), timeout=10)
            still_held = not held.done()
            service.release.set()
            return metrics, still_held, await held

        metrics, still_held, held = run(
            with_held_service(ServeConfig(cache_dir=str(tmp_path)), scenario)
        )
        assert still_held
        assert metrics.status == 200
        assert metrics.body["gauges"]["running"] == 1
        assert held.status == 200
