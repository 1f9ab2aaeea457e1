"""Tests for the perf-smoke trajectory harness and its determinism gate.

The key property added with the compile cache: the ``--compare`` drift gate
keys on per-router mean swaps/depth (and the pinned fixture) *only* --
cache-timing fields (the record's top-level ``cache`` section) move run to
run without the routed bits changing and must never trip it.
"""

import copy

import pytest

from repro.analysis.perf_trajectory import (
    quality_regressions,
    render_trajectory,
    run_perf_smoke,
)
from repro.api import CompileCache


@pytest.fixture(scope="module")
def quick_record():
    return run_perf_smoke(quick=True)


class TestCacheFieldsNeverGate:
    def test_record_carries_cache_counters(self, quick_record):
        cache = quick_record["cache"]
        # no cache: nothing persistent to hit, so no store is consulted
        assert cache["enabled"] is False
        assert cache["hits"] == 0
        assert cache["misses"] == sum(
            stats["runs"] for stats in quick_record["routers"].values()
        )

    def test_differing_cache_fields_do_not_trip_the_gate(self, quick_record):
        warm = copy.deepcopy(quick_record)
        warm["cache"] = {
            "enabled": True,
            "dir": "/somewhere/persistent",
            "hits": warm["cache"]["misses"],
            "misses": 0,
        }
        assert quality_regressions(warm, quick_record) == []
        cold = copy.deepcopy(quick_record)
        cold["cache"] = {"enabled": False, "dir": None, "hits": 0, "misses": 0}
        assert quality_regressions(cold, quick_record) == []

    def test_swaps_drift_still_trips_the_gate(self, quick_record):
        drifted = copy.deepcopy(quick_record)
        router = sorted(drifted["routers"])[0]
        drifted["routers"][router]["mean_swaps"] += 1
        problems = quality_regressions(drifted, quick_record)
        assert any("mean_swaps" in line for line in problems)

    def test_timing_changes_do_not_trip_the_gate(self, quick_record):
        faster = copy.deepcopy(quick_record)
        for stats in faster["routers"].values():
            stats["mean_seconds"] = 0.0
        faster["wall_seconds"] = 0.0
        assert quality_regressions(faster, quick_record) == []


class TestCachedRunsKeepTheTrajectoryHonest:
    def test_warm_disk_run_replays_identical_quality_and_timings(self, tmp_path, quick_record):
        cold = run_perf_smoke(quick=True, cache=CompileCache(directory=tmp_path))
        warm = run_perf_smoke(quick=True, cache=CompileCache(directory=tmp_path))
        assert warm["cache"]["hits"] == cold["cache"]["misses"] > 0
        assert warm["cache"]["misses"] == 0
        # Replayed pass timings keep mean_seconds a routing-time trajectory:
        # a warm record is indistinguishable router-wise from its cold run.
        assert warm["routers"] == cold["routers"]
        assert quality_regressions(warm, cold) == []

    def test_cache_disabled_run_matches_quality(self, quick_record):
        uncached = run_perf_smoke(quick=True, cache=None)
        assert uncached["cache"]["enabled"] is False
        assert quality_regressions(uncached, quick_record) == []


class TestRendering:
    def test_render_says_cache_off_without_a_store(self, quick_record):
        assert "cache off" in render_trajectory(quick_record)

    def test_render_mentions_cache_counters_for_disk_runs(self, tmp_path):
        record = run_perf_smoke(quick=True, cache=CompileCache(directory=tmp_path))
        assert "cache 0 hit(s)" in render_trajectory(record)
        warm = run_perf_smoke(quick=True, cache=CompileCache(directory=tmp_path))
        assert "cache 7 hit(s) / 0 miss(es)" in render_trajectory(warm)

    def test_render_handles_records_without_cache_section(self, quick_record):
        legacy = {k: v for k, v in quick_record.items() if k != "cache"}
        assert "cache off" in render_trajectory(legacy)
