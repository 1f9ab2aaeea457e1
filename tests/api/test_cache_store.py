"""Test battery for the bounded compile-cache disk tier: one SQLite database.

Covers the store contract end to end:

* layout -- one database file in the cache directory, one row per entry
  (access sequence, size, write time, schema, digest, payload text) and a
  totals row that always equals the entries' count and byte sum,
* LRU bounds -- ``max_bytes``/``max_entries`` are never exceeded, victim
  order is deterministic and the hottest entry survives, including under
  arbitrary put/get/clear interleavings, and an evicting put issues the
  same SQL statements at 50 entries as at 500,
* bound validation -- every bound is an integer, not a bool, in range,
* warm==cold bit-for-bit under eviction pressure for ``workers`` in {1, 2},
* crash consistency (a truncated database, a file that is not a database,
  a corrupt row, a row deleted under the reader, a locked database, a
  failed write): each test builds the state on disk or fails one write;
  every failure degrades to a recomputed miss, never an exception, and
  ``clear`` removes a database it cannot read,
* readonly fleet mode -- a second handle serves hits from a shared warm
  directory without ever writing, racing a live writer's evictions,
* threads -- two writers and a reader sharing one bounded handle, as the
  compile service shares its cache, never raise and leave the totals equal
  to the entries.

Most tests store one real compiled payload under synthetic fingerprints so
the battery exercises the store, not the routers.
"""

import hashlib
import itertools
import json
import logging
import random
import sqlite3
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest

import repro.api.cache as api_cache
from repro.api import (
    CompileCache,
    CompileRequest,
    compile as api_compile,
    compile_many,
    compile_uncached,
    default_cache,
    request_fingerprint,
    set_default_cache,
)
from repro.api.cache import (
    CACHE_MAX_BYTES_ENV,
    CACHE_MAX_ENTRIES_ENV,
    CACHE_SCHEMA_VERSION,
    DATABASE_NAME,
)
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.hardware.topologies import grid_topology

GRID = grid_topology(4, 4)

def request_for(seed=0):
    return CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy", seed=seed)


def gates_of(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def bits_of(result):
    metrics = {k: v for k, v in result.metrics.items() if k != "runtime_seconds"}
    return (
        gates_of(result.routed_circuit),
        result.routing.initial_layout,
        result.routing.final_layout,
        metrics,
    )


@pytest.fixture(scope="module")
def result():
    """One real compiled result, reused as the payload of synthetic entries."""
    return compile_uncached(request_for())


def fp(index: int) -> str:
    """A well-formed synthetic fingerprint (spread across shards)."""
    return hashlib.sha256(f"entry-{index}".encode()).hexdigest()


def query(directory: Path, sql: str, *parameters):
    """The rows of ``sql``, run and committed by a second connection to the database."""
    with closing(sqlite3.connect(directory / DATABASE_NAME)) as db, db:
        return db.execute(sql, parameters).fetchall()


def stored(directory: Path) -> set[str]:
    """Fingerprints of every entry in the directory's database."""
    if not (directory / DATABASE_NAME).exists():
        return set()
    return {row[0] for row in query(directory, "SELECT fingerprint FROM entries")}


def assert_totals_match_entries(directory: Path) -> None:
    totals = query(directory, "SELECT entries, bytes FROM totals")
    counted = query(directory, "SELECT COUNT(*), IFNULL(SUM(size), 0) FROM entries")
    assert totals == counted


def entry_size(tmp_path, result) -> int:
    probe = CompileCache(directory=tmp_path / "probe")
    probe.store(fp(0), result)
    return probe.disk_stats()["bytes"]


# ---------------------------------------------------------------------------
# The database
# ---------------------------------------------------------------------------


class TestDatabaseLayout:
    def test_the_store_is_one_database_file(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        for index in range(5):
            cache.store(fp(index), result)
        # the rollback journal stays behind, truncated to nothing
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            DATABASE_NAME, f"{DATABASE_NAME}-journal"
        ]
        assert (tmp_path / f"{DATABASE_NAME}-journal").stat().st_size == 0

    def test_a_row_holds_the_entry(self, tmp_path, result):
        before = time.time()
        payload = CompileCache(directory=tmp_path).store(fp(1), result)
        [(seq, size, written, schema, digest, text)] = query(
            tmp_path,
            "SELECT seq, size, written, schema, digest, payload FROM entries WHERE fingerprint = ?",
            fp(1),
        )
        assert seq >= 1
        assert size == len(text.encode())
        assert before <= written <= time.time()
        assert schema == CACHE_SCHEMA_VERSION
        assert digest == hashlib.sha256((fp(1) + text).encode()).hexdigest()
        assert json.loads(text) == payload

    def test_disk_hits_advance_the_access_sequence(self, tmp_path, result):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        cache.store(fp(1), result)
        cache.store(fp(2), result)
        order = "SELECT fingerprint FROM entries ORDER BY seq"
        assert query(tmp_path, order) == [(fp(1),), (fp(2),)]
        assert cache.lookup(fp(1), request_for()) is not None
        assert query(tmp_path, order) == [(fp(2),), (fp(1),)]

    def test_entries_round_trip_through_a_fresh_handle(self, tmp_path, result):
        CompileCache(directory=tmp_path).store(fp(1), result)
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        hit = fresh.lookup(fp(1), request_for())
        assert hit is not None
        assert bits_of(hit) == bits_of(result)
        assert fresh.stats["disk_hits"] == 1

    def test_flipped_payload_bits_fail_digest_verification(self, tmp_path, result, caplog):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        cache.store(fp(1), result)
        [(text,)] = query(tmp_path, "SELECT payload FROM entries")
        payload = json.loads(text)
        payload["metrics"]["swaps"] = 424242  # still valid JSON
        query(tmp_path, "UPDATE entries SET payload = ?", json.dumps(payload))
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert fresh.lookup(fp(1), request_for()) is None
        assert fresh.stats["integrity_misses"] == 1
        assert any("integrity" in record.message for record in caplog.records)

    def test_lookups_stats_and_clear_never_create_the_database(self, tmp_path):
        directory = tmp_path / "cache"
        cache = CompileCache(directory=directory, max_entries=3)
        assert cache.lookup(fp(1), request_for()) is None
        assert cache.info()["disk_entries"] == 0
        assert cache.clear() == {"memory_entries": 0, "disk_entries": 0}
        assert not directory.exists()


# ---------------------------------------------------------------------------
# LRU bounds
# ---------------------------------------------------------------------------


class TestBoundsAndEviction:
    def test_max_entries_never_exceeded(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=3)
        for index in range(10):
            cache.store(fp(index), result)
            assert cache.disk_stats()["entries"] <= 3
        assert cache.disk_stats()["entries"] == 3

    def test_max_bytes_never_exceeded(self, tmp_path, result):
        size = entry_size(tmp_path, result)
        cache = CompileCache(directory=tmp_path / "store", max_bytes=3 * size)
        for index in range(8):
            cache.store(fp(index), result)
            assert cache.disk_stats()["bytes"] <= 3 * size

    def test_least_recently_stored_evicted_first(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=2)
        for index in range(3):
            cache.store(fp(index), result)
        assert stored(tmp_path) == {fp(1), fp(2)}

    def test_hottest_entry_survives(self, tmp_path, result):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=3)
        for index in range(3):
            cache.store(fp(index), result)
        # re-reading entry 0 makes it the hottest; the cold middle dies first
        assert cache.lookup(fp(0), request_for()) is not None
        cache.store(fp(3), result)
        cache.store(fp(4), result)
        assert fp(0) in stored(tmp_path)
        assert stored(tmp_path) == {fp(0), fp(3), fp(4)}

    def test_access_order_persists_across_handles(self, tmp_path, result):
        writer = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=3)
        for index in range(3):
            writer.store(fp(index), result)
        second = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=3)
        assert second.lookup(fp(0), request_for()) is not None  # touch on disk
        third = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=3)
        third.store(fp(3), result)
        # the touch recorded by the *second* handle must steer the *third*
        # handle's eviction: entry 1 (coldest) dies, entry 0 survives
        assert stored(tmp_path) == {fp(0), fp(2), fp(3)}

    def test_eviction_order_is_deterministic(self, tmp_path, result):
        survivors = []
        for run in ("a", "b"):
            cache = CompileCache(
                max_memory_entries=0, directory=tmp_path / run, max_entries=3
            )
            for index in range(6):
                cache.store(fp(index), result)
                if index % 2 == 0:
                    cache.lookup(fp(index), request_for())
            survivors.append(stored(tmp_path / run))
        assert survivors[0] == survivors[1]

    def test_eviction_batch_removes_several_victims_at_once(self, tmp_path, result):
        size = entry_size(tmp_path, result)
        cache = CompileCache(directory=tmp_path / "store", max_entries=5)
        for index in range(5):
            cache.store(fp(index), result)
        # tightening max_bytes on a fresh handle forces a multi-victim batch
        tight = CompileCache(directory=tmp_path / "store", max_bytes=2 * size)
        tight.store(fp(5), result)
        stats = tight.disk_stats()
        assert stats["entries"] == 2
        assert stats["bytes"] <= 2 * size
        assert tight.stats["evictions"] == 4

    def test_eviction_counters_update_stats_and_info(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=1)
        cache.store(fp(0), result)
        cache.store(fp(1), result)
        assert cache.stats["evictions"] == 1
        assert cache.stats["evicted_bytes"] > 0
        info = cache.info()
        assert info["disk_evictions"] == 1
        assert info["disk_evicted_bytes"] == cache.stats["evicted_bytes"]

    def test_eviction_counters_persist_across_handles(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=1)
        for index in range(4):
            cache.store(fp(index), result)
        fresh = CompileCache(directory=tmp_path)
        assert fresh.info()["disk_evictions"] == 3
        assert query(tmp_path, "SELECT evictions FROM totals") == [(3,)]

    def test_eviction_keeps_the_totals_equal_to_the_entries(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=2)
        for index in range(5):
            cache.store(fp(index), result)
        cache.store(fp(4), result)  # a re-store replaces its row
        assert_totals_match_entries(tmp_path)
        assert query(tmp_path, "SELECT entries FROM totals") == [(2,)]

    def test_evicted_entry_also_leaves_the_memory_tier(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=1)
        cache.store(fp(0), result)
        cache.store(fp(1), result)
        assert cache.lookup(fp(0), request_for()) is None
        assert cache.stats["memory_hits"] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_interleavings_respect_bounds(self, tmp_path, result, seed):
        rng = random.Random(seed)
        size = entry_size(tmp_path, result)
        cache = CompileCache(
            max_memory_entries=0,
            directory=tmp_path / "store",
            max_entries=4,
            max_bytes=6 * size,
        )
        for step in range(60):
            op = rng.random()
            if op < 0.55:
                cache.store(fp(rng.randrange(12)), result)
            elif op < 0.9:
                cache.lookup(fp(rng.randrange(12)), request_for())
            else:
                cache.clear()
            stats = cache.disk_stats()
            assert stats["entries"] <= 4, f"step {step} exceeded max_entries"
            assert stats["bytes"] <= 6 * size, f"step {step} exceeded max_bytes"


class TestFlatCostPuts:
    def test_an_evicting_put_issues_as_many_statements_at_50_as_at_500_entries(
        self, tmp_path, result
    ):
        counts = []
        for size in (50, 500):
            cache = CompileCache(
                max_memory_entries=0, directory=tmp_path / str(size), max_entries=size
            )
            for index in range(size):
                cache.store(fp(index), result)
            statements = []
            cache._db.set_trace_callback(statements.append)
            cache.store(fp(size), result)
            cache._db.set_trace_callback(None)
            assert cache.stats["evictions"] == 1
            counts.append(len(statements))
        assert counts[0] == counts[1]


class TestBoundValidation:
    BOUNDS = ("max_memory_entries", "max_bytes", "max_entries")

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("value", [True, 2.7, "5", "three", 0, -1])
    def test_bad_bounds_are_rejected_not_coerced(self, tmp_path, bound, value):
        if bound == "max_memory_entries" and value == 0:
            assert CompileCache(directory=tmp_path, max_memory_entries=0).max_memory_entries == 0
            return
        with pytest.raises(ValueError, match=bound):
            CompileCache(directory=tmp_path, **{bound: value})

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_integer_bounds_are_kept_as_given(self, tmp_path, bound):
        cache = CompileCache(directory=tmp_path, **{bound: 7})
        assert getattr(cache, bound) == 7


# ---------------------------------------------------------------------------
# Totals and clear
# ---------------------------------------------------------------------------


class TestTotalsConsistency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_totals_match_the_entries_after_random_ops(self, tmp_path, result, seed):
        rng = random.Random(seed)
        cache = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=5)
        for _ in range(50):
            op = rng.random()
            if op < 0.6:
                cache.store(fp(rng.randrange(10)), result)
            elif op < 0.92:
                cache.lookup(fp(rng.randrange(10)), request_for())
            else:
                cache.clear()
        assert_totals_match_entries(tmp_path)
        fresh = CompileCache(directory=tmp_path).disk_stats()
        assert fresh["entries"] == len(stored(tmp_path))

    def test_clear_removes_every_entry_and_resets_the_counters(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=2)
        for index in range(4):
            cache.store(fp(index), result)
        removed = cache.clear()
        assert removed["disk_entries"] == 2
        assert stored(tmp_path) == set()
        assert query(tmp_path, "SELECT * FROM totals") == [(0, 0, 0, 0)]
        cache.store(fp(9), result)  # the store works again after a clear
        assert stored(tmp_path) == {fp(9)}

    def test_clear_counts_only_the_entries_it_removed(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        for index in range(3):
            cache.store(fp(index), result)
        # another process got to one entry first
        query(tmp_path, "DELETE FROM entries WHERE fingerprint = ?", fp(1))
        assert cache.clear()["disk_entries"] == 2
        assert stored(tmp_path) == set()

    def test_clear_keeps_the_legacy_removed_counts_shape(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        cache.store(fp(2), result)
        assert cache.clear() == {"memory_entries": 2, "disk_entries": 2}


# ---------------------------------------------------------------------------
# Warm == cold under eviction pressure
# ---------------------------------------------------------------------------


class TestWarmEqualsColdUnderEviction:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bounded_cache_never_changes_a_routed_bit(self, tmp_path, workers):
        requests = [request_for(seed) for seed in range(8)]
        cold = compile_many(requests, workers=1, cache=False)
        # the bound is far smaller than the working set: constant eviction
        cache = CompileCache(directory=tmp_path, max_entries=3)
        first = compile_many(requests, workers=workers, cache=cache)
        second = compile_many(requests, workers=workers, cache=cache)
        assert cache.disk_stats()["entries"] <= 3
        assert cache.stats["evictions"] > 0
        for cold_result, first_result, second_result in zip(cold, first, second):
            assert bits_of(first_result) == bits_of(cold_result)
            assert bits_of(second_result) == bits_of(cold_result)


# ---------------------------------------------------------------------------
# Crash consistency: each state is built on disk or by one failing write
# ---------------------------------------------------------------------------


@pytest.fixture
def short_busy_timeout(monkeypatch):
    """Give up on a locked database after 50 ms instead of the full timeout."""
    monkeypatch.setattr(api_cache, "_BUSY_TIMEOUT_SECONDS", 0.05)


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def overwrite(path: Path) -> None:
    path.write_bytes(b"this is not an SQLite database\n" * 200)


class TestCrashConsistency:
    @pytest.mark.parametrize("damage", [truncate, overwrite], ids=["truncated", "not-a-database"])
    def test_damaged_database_is_a_logged_miss_and_clear_removes_it(
        self, tmp_path, caplog, damage
    ):
        requests = [request_for(seed) for seed in range(8)]
        writer = CompileCache(directory=tmp_path)
        clean = [api_compile(request, cache=writer) for request in requests]
        del writer
        damage(tmp_path / DATABASE_NAME)
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            again = [api_compile(request, cache=cache) for request in requests]
            assert cache.info()["disk_entries"] <= len(requests)  # never raises
        assert [bits_of(r) for r in again] == [bits_of(r) for r in clean]
        assert cache.stats["misses"] + cache.stats["disk_hits"] == len(requests)
        assert any("miss" in record.message for record in caplog.records)
        cache.clear()  # removes the database it cannot read
        assert not (tmp_path / DATABASE_NAME).exists()
        healed = CompileCache(max_memory_entries=0, directory=tmp_path)
        api_compile(requests[0], cache=healed)
        api_compile(requests[0], cache=healed)
        assert healed.stats["disk_hits"] == 1

    @pytest.mark.parametrize("readonly", [False, True], ids=["writer", "reader"])
    def test_a_damaged_database_costs_one_open_and_one_warning(
        self, tmp_path, caplog, monkeypatch, result, readonly
    ):
        writer = CompileCache(directory=tmp_path)
        for index in range(8):
            writer.store(fp(index), result)
        del writer
        truncate(tmp_path / DATABASE_NAME)
        connects, connect = [], sqlite3.connect

        def counting_connect(*args, **kwargs):
            connects.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        cache = CompileCache(max_memory_entries=0, directory=tmp_path, readonly=readonly)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            for index in range(20):
                assert cache.lookup(fp(index), request_for()) is None
            cache.store(fp(20), result)  # the memory tier only
            assert cache.disk_stats()["entries"] == 0
        assert len(connects) <= 1
        assert len([r for r in caplog.records if r.levelno >= logging.WARNING]) <= 1
        # A store recreates the removed file, and the handle that gave up hits.
        (tmp_path / DATABASE_NAME).unlink()
        (CompileCache(directory=tmp_path) if readonly else cache).store(fp(0), result)
        assert CompileCache(max_memory_entries=0, directory=tmp_path).lookup(fp(0), request_for())
        assert cache.lookup(fp(0), request_for()) is not None

    def test_corrupt_row_is_a_logged_miss_then_recovers(self, tmp_path, caplog):
        request = request_for()
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        clean = api_compile(request, cache=cache)
        query(tmp_path, "UPDATE entries SET payload = X'FF00FF'")  # a blob, not text
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            recomputed = api_compile(request, cache=cache)
        assert bits_of(recomputed) == bits_of(clean)
        assert cache.stats["integrity_misses"] == 1
        api_compile(request, cache=cache)  # the miss stored the entry again
        assert cache.stats["disk_hits"] == 1

    def test_evicted_underfoot_degrades_to_miss_then_recovers(self, tmp_path):
        request = request_for()
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        clean = api_compile(request, cache=cache)
        # another writer evicted it
        query(tmp_path, "DELETE FROM entries WHERE fingerprint = ?", request_fingerprint(request))
        recomputed = api_compile(request, cache=cache)
        assert bits_of(recomputed) == bits_of(clean)
        assert cache.stats["misses"] == 2
        api_compile(request, cache=cache)
        assert cache.stats["disk_hits"] == 1
        assert_totals_match_entries(tmp_path)

    @pytest.mark.parametrize("readonly", [False, True], ids=["writer", "reader"])
    def test_locked_database_is_a_logged_miss(
        self, tmp_path, caplog, readonly, short_busy_timeout
    ):
        request = request_for()
        clean = api_compile(request, cache=CompileCache(directory=tmp_path))
        cache = CompileCache(max_memory_entries=0, directory=tmp_path, readonly=readonly)
        holder = sqlite3.connect(tmp_path / DATABASE_NAME, isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
                recomputed = api_compile(request, cache=cache)
                assert cache.info()["disk_entries"] == 0  # stats read as empty
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert bits_of(recomputed) == bits_of(clean)
        assert cache.stats["disk_hits"] == 0 and cache.stats["misses"] == 1
        assert any("locked" in record.message for record in caplog.records)
        api_compile(request, cache=cache)  # the lock is gone: the entry hits
        assert cache.stats["disk_hits"] == 1

    @pytest.mark.parametrize("failure", ["locked", "full", "refused"])
    def test_failed_write_leaves_the_memory_tier_only(
        self, tmp_path, caplog, failure, short_busy_timeout
    ):
        # qft:16's payload needs overflow pages, so a full database fails it
        request = CompileRequest(circuit=qft_circuit(16), backend=GRID, router="greedy")
        clean = api_compile(request, cache=False)
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(0), api_compile(request_for(), cache=False))  # opens the database
        holder = sqlite3.connect(tmp_path / DATABASE_NAME, isolation_level=None)
        if failure == "locked":
            holder.execute("BEGIN EXCLUSIVE")
        elif failure == "full":
            [(pages,)] = cache._db.execute("PRAGMA page_count").fetchall()
            cache._db.execute(f"PRAGMA max_page_count = {pages}")
        else:
            holder.execute(
                "CREATE TRIGGER refuse BEFORE INSERT ON entries"
                " BEGIN SELECT RAISE(ABORT, 'refused'); END"
            )
        try:
            with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
                first = api_compile(request, cache=cache)  # returns: the failure stays inside
                second = api_compile(request, cache=cache)
        finally:
            if holder.in_transaction:
                holder.execute("ROLLBACK")
            holder.close()
        assert bits_of(first) == bits_of(clean) == bits_of(second)
        assert cache.stats["memory_hits"] == 1 and cache.stats["disk_hits"] == 0
        assert stored(tmp_path) == {fp(0)}
        assert_totals_match_entries(tmp_path)
        assert any("cannot persist" in record.message for record in caplog.records)


# ---------------------------------------------------------------------------
# Readonly fleet mode
# ---------------------------------------------------------------------------


def snapshot_tree(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestReadonly:
    def test_readonly_requires_a_directory(self):
        with pytest.raises(ValueError, match="readonly"):
            CompileCache(readonly=True)

    def test_readonly_serves_hits_from_a_shared_directory(self, tmp_path, result):
        CompileCache(directory=tmp_path).store(fp(1), result)
        reader = CompileCache(max_memory_entries=0, directory=tmp_path, readonly=True)
        hit = reader.lookup(fp(1), request_for())
        assert hit is not None and bits_of(hit) == bits_of(result)
        assert reader.info()["readonly"] is True

    def test_readonly_never_writes_a_single_byte(self, tmp_path, result):
        CompileCache(directory=tmp_path).store(fp(1), result)
        before = snapshot_tree(tmp_path)
        reader = CompileCache(directory=tmp_path, readonly=True)
        reader.lookup(fp(1), request_for())   # no touch record
        reader.store(fp(2), result)           # memory tier only
        reader.lookup(fp(9), request_for())   # a miss writes nothing either
        reader.clear()                        # clears memory only
        assert snapshot_tree(tmp_path) == before

    def test_readonly_on_a_missing_database_reads_an_empty_store(self, tmp_path, result):
        reader = CompileCache(directory=tmp_path / "absent", readonly=True)
        assert reader.lookup(fp(1), request_for()) is None
        assert reader.info()["disk_entries"] == 0
        assert not (tmp_path / "absent").exists()
        CompileCache(directory=tmp_path / "absent").store(fp(1), result)
        assert reader.lookup(fp(1), request_for()) is not None  # the writer made it

    def test_readonly_store_still_feeds_the_memory_tier(self, tmp_path, result):
        reader = CompileCache(directory=tmp_path, readonly=True)
        reader.store(fp(1), result)
        assert reader.lookup(fp(1), request_for()) is not None
        assert reader.stats["memory_hits"] == 1
        assert stored(tmp_path) == set()

    def test_readonly_never_evicts_even_over_bounds(self, tmp_path, result):
        writer = CompileCache(directory=tmp_path)
        for index in range(4):
            writer.store(fp(index), result)
        reader = CompileCache(
            max_memory_entries=0, directory=tmp_path, readonly=True, max_entries=1
        )
        for index in range(4):
            assert reader.lookup(fp(index), request_for()) is not None
        assert reader.disk_stats()["entries"] == 4

# ---------------------------------------------------------------------------
# Concurrency stress
# ---------------------------------------------------------------------------


class TestConcurrencyStress:
    def test_readonly_reader_races_writer_evictions(self, tmp_path, result):
        """A readonly handle must never observe a partial entry.

        The writer churns a bounded store (every put evicts) while the reader
        loops lookups over the full key space: every hit must be bit-identical
        to the reference result and no lookup may raise.
        """
        reference = bits_of(result)
        writer = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=3)
        writer.store(fp(0), result)
        reader = CompileCache(max_memory_entries=0, directory=tmp_path, readonly=True)
        errors: list[BaseException] = []
        done = threading.Event()

        def write_loop():
            try:
                for round_number in range(15):
                    for index in range(8):
                        writer.store(fp(index), result)
            except BaseException as exc:  # pragma: no cover - failure evidence
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=write_loop)
        thread.start()
        hits = 0
        try:
            while not done.is_set():
                for index in range(8):
                    hit = reader.lookup(fp(index), request_for())
                    if hit is not None:
                        assert bits_of(hit) == reference
                        hits += 1
        finally:
            thread.join()
        assert not errors
        assert hits > 0  # the race actually exercised the read path
        assert writer.disk_stats()["entries"] <= 3

    def test_threads_share_one_bounded_handle(self, tmp_path, result, caplog):
        """The compile service stores from executor threads while its event
        loop looks up, all on one handle: two threads each storing 300
        distinct entries into a 20-entry store, and a third looking up, must
        neither raise nor leave the totals apart from the entries."""
        cache = CompileCache(directory=tmp_path, max_entries=20)
        errors: list[Exception] = []
        writers_done = threading.Event()

        def write(first):
            try:
                for index in range(first, first + 300):
                    cache.store(fp(index), result)
            except Exception as exc:  # pragma: no cover - failure evidence
                errors.append(exc)

        def read():
            # One lookup per pause: a reader that held on to the GIL would
            # stall each writer at every statement.
            keys = itertools.cycle(range(0, 600, 7))
            try:
                while not writers_done.wait(0.0005):
                    cache.lookup(fp(next(keys)), request_for())
            except Exception as exc:  # pragma: no cover - failure evidence
                errors.append(exc)

        writers = [threading.Thread(target=write, args=(first,)) for first in (0, 300)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-update far more often
        try:
            with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
                reader.start()
                for thread in writers:
                    thread.start()
                for thread in writers:
                    thread.join(timeout=120)
                writers_done.set()
                reader.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in (*writers, reader))
        assert errors == []
        assert cache.stats["stores"] == 600
        assert len(stored(tmp_path)) == 20
        assert_totals_match_entries(tmp_path)
        assert not any("cannot persist" in record.message for record in caplog.records)

    def test_writer_handoff_stays_bounded_and_deterministic(self, tmp_path, result):
        """The single-writer contract allows *sequential* handoff: a fresh
        writer picking up the directory recovers the sequence and bounds,
        and converges to the same deterministic survivor set as one writer
        doing all the puts."""
        for run in ("handoff", "single"):
            directory = tmp_path / run
            if run == "handoff":
                first = CompileCache(
                    max_memory_entries=0, directory=directory, max_entries=3
                )
                for index in range(4):
                    first.store(fp(index), result)
                second = CompileCache(
                    max_memory_entries=0, directory=directory, max_entries=3
                )
                for index in range(4, 8):
                    second.store(fp(index), result)
            else:
                cache = CompileCache(
                    max_memory_entries=0, directory=directory, max_entries=3
                )
                for index in range(8):
                    cache.store(fp(index), result)
            assert CompileCache(directory=directory).disk_stats()["entries"] == 3
        assert stored(tmp_path / "handoff") == stored(tmp_path / "single")

    def test_info_races_a_concurrent_clear_without_raising(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        for index in range(20):
            cache.store(fp(index), result)
        clearer = CompileCache(directory=tmp_path)
        errors: list[BaseException] = []

        def clear_loop():
            try:
                clearer.clear()
            except BaseException as exc:  # pragma: no cover - failure evidence
                errors.append(exc)

        thread = threading.Thread(target=clear_loop)
        thread.start()
        try:
            for _ in range(50):
                cache.info()  # must never raise while entries vanish
        finally:
            thread.join()
        assert not errors


# ---------------------------------------------------------------------------
# Stats, info and the environment surface
# ---------------------------------------------------------------------------


class TestStatsAndInfo:
    def test_shard_breakdown_sums_to_the_totals(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        for index in range(6):
            cache.store(fp(index), result)
        info = cache.info()
        assert sum(b["entries"] for b in info["disk_shards"].values()) == 6
        assert sum(b["bytes"] for b in info["disk_shards"].values()) == info["disk_bytes"]
        assert set(info["disk_shards"]) == {fp(index)[:2] for index in range(6)}

    def test_age_histogram_buckets_every_entry(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        for index in range(4):
            cache.store(fp(index), result)
        histogram = cache.info()["disk_age_histogram"]
        assert sum(histogram.values()) == 4
        assert histogram["<=1m"] == 4  # just written

    def test_ages_come_from_the_write_times(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        ages = {0: 10.0, 1: 7200.0, 2: 7200.0, 3: 30 * 86400.0}
        for index in ages:
            cache.store(fp(index), result)
        now = time.time()
        for index, age in ages.items():
            query(tmp_path, "UPDATE entries SET written = ? WHERE fingerprint = ?",
                  now - age, fp(index))
        info = cache.info()
        assert info["disk_age_histogram"] == {
            "<=1m": 1, "<=1h": 0, "<=1d": 2, "<=7d": 0, ">7d": 1
        }
        assert info["disk_oldest_age_seconds"] == pytest.approx(30 * 86400.0, abs=5)
        assert info["disk_newest_age_seconds"] == pytest.approx(10.0, abs=5)

    def test_hit_rate_tracks_this_handles_lookups(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        assert cache.info()["hit_rate"] is None  # no lookups yet
        cache.store(fp(1), result)
        cache.lookup(fp(1), request_for())
        cache.lookup(fp(2), request_for())
        assert cache.info()["hit_rate"] == 0.5

    def test_info_reports_the_configured_bounds(self, tmp_path):
        cache = CompileCache(directory=tmp_path, max_bytes=1000, max_entries=5)
        info = cache.info()
        assert info["max_bytes"] == 1000
        assert info["max_entries"] == 5
        assert info["readonly"] is False


class TestEnvironmentBounds:
    @pytest.fixture(autouse=True)
    def restore_default_cache(self):
        previous = set_default_cache(None)
        yield
        set_default_cache(previous)

    def test_env_bounds_configure_the_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, "123456")
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "7")
        cache = default_cache()
        assert cache.max_bytes == 123456
        assert cache.max_entries == 7

    @pytest.mark.parametrize("value", ["banana", "-3", "0"])
    def test_invalid_env_bound_is_ignored_with_a_warning(
        self, tmp_path, monkeypatch, caplog, value
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV, value)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            cache = default_cache()
        assert cache.max_bytes is None
        assert any(CACHE_MAX_BYTES_ENV in record.message for record in caplog.records)

    def test_env_bounds_ignored_without_a_cache_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "7")
        cache = default_cache()
        assert cache.directory is None
        assert cache.max_entries is None
