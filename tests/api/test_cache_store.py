"""Test battery for the bounded, sharded compile-cache piece store.

Covers the ISSUE-9 store contract end to end:

* layout -- entries under two-hex fingerprint-prefix shard directories with
  a per-shard append-only ``index.jsonl``,
* LRU bounds -- ``max_bytes``/``max_entries`` are never exceeded, victim
  order is deterministic and the hottest entry survives, including under
  arbitrary put/get/clear interleavings,
* index<->directory consistency -- the directory is the source of truth;
  orphan payloads are adopted, dead index records dropped, torn lines
  compacted on the next write,
* warm==cold bit-for-bit under eviction pressure for ``workers`` in {1, 2},
* crash consistency (torn index, stale index record, entry evicted under
  the reader, read denied, failed write, malformed metadata): each test
  builds the state on disk or makes one OS call fail; every failure
  degrades to a recomputed miss, never an exception, and the store
  self-heals on the next write,
* readonly fleet mode -- a second handle serves hits from a shared warm
  directory without ever writing, racing a live writer's evictions,
* threads -- two writers and a reader sharing one bounded handle, as the
  compile service shares its cache, never raise and leave the catalog
  equal to the directory,
* the vanishing-entry regression -- ``disk_stats``/``clear`` tolerate
  entries unlinked between scan and stat (a concurrent ``clear``).

Most tests store one real compiled payload under synthetic fingerprints so
the battery exercises the store, not the routers.
"""

import errno
import hashlib
import itertools
import json
import logging
import os
import random
import sys
import threading
from pathlib import Path

import pytest

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
    INDEX_NAME,
    META_NAME,
)
from repro.benchgen.qasmbench import ghz_circuit
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


def payload_files(directory: Path) -> set[str]:
    """Fingerprints of every payload file on disk."""
    found = set()
    for path in directory.rglob("*.json"):
        if path.name != META_NAME and len(path.stem) == 64:
            found.add(path.stem)
    return found


def index_fingerprints(directory: Path) -> set[str]:
    """Fingerprints with a live put record in any shard index."""
    found = set()
    for index_path in directory.rglob(INDEX_NAME):
        for line in index_path.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if record.get("op") == "put":
                    found.add(record["fp"])
    return found


def entry_size(tmp_path, result) -> int:
    probe = CompileCache(directory=tmp_path / "probe")
    probe.store(fp(0), result)
    return probe.disk_stats()["bytes"]


# ---------------------------------------------------------------------------
# Shard layout
# ---------------------------------------------------------------------------


class TestShardLayout:
    def test_entry_lands_in_two_hex_shard_dir(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        path = tmp_path / fp(1)[:2] / f"{fp(1)}.json"
        assert path.exists()
        assert not (tmp_path / f"{fp(1)}.json").exists()

    def test_shard_carries_an_append_only_index(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        index_path = tmp_path / fp(1)[:2] / INDEX_NAME
        records = [json.loads(line) for line in index_path.read_text().splitlines()]
        assert len(records) == 1
        record = records[0]
        assert record["op"] == "put"
        assert record["fp"] == fp(1)
        assert record["schema"] == CACHE_SCHEMA_VERSION
        assert record["size"] == (tmp_path / fp(1)[:2] / f"{fp(1)}.json").stat().st_size
        assert record["created"] > 0
        assert record["seq"] >= 1

    def test_disk_hits_append_touch_records(self, tmp_path, result):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        cache.store(fp(1), result)
        assert cache.lookup(fp(1), request_for()) is not None
        lines = (tmp_path / fp(1)[:2] / INDEX_NAME).read_text().splitlines()
        ops = [json.loads(line)["op"] for line in lines]
        assert ops == ["put", "touch"]

    def test_entries_round_trip_through_a_fresh_handle(self, tmp_path, result):
        CompileCache(directory=tmp_path).store(fp(1), result)
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        hit = fresh.lookup(fp(1), request_for())
        assert hit is not None
        assert bits_of(hit) == bits_of(result)
        assert fresh.stats["disk_hits"] == 1

    def test_entries_embed_an_integrity_digest(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        envelope = json.loads((tmp_path / fp(1)[:2] / f"{fp(1)}.json").read_text())
        assert set(envelope) == {"schema", "fingerprint", "digest", "payload"}
        assert envelope["fingerprint"] == fp(1)

    def test_flipped_payload_bits_fail_digest_verification(self, tmp_path, result, caplog):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        cache.store(fp(1), result)
        path = tmp_path / fp(1)[:2] / f"{fp(1)}.json"
        envelope = json.loads(path.read_text())
        envelope["payload"]["metrics"]["swaps"] = 424242  # still valid JSON
        path.write_text(json.dumps(envelope, sort_keys=True))
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert fresh.lookup(fp(1), request_for()) is None
        assert fresh.stats["integrity_misses"] == 1
        assert any("integrity" in record.message for record in caplog.records)


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
        assert payload_files(tmp_path) == {fp(1), fp(2)}

    def test_hottest_entry_survives(self, tmp_path, result):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path, max_entries=3)
        for index in range(3):
            cache.store(fp(index), result)
        # re-reading entry 0 makes it the hottest; the cold middle dies first
        assert cache.lookup(fp(0), request_for()) is not None
        cache.store(fp(3), result)
        cache.store(fp(4), result)
        assert fp(0) in payload_files(tmp_path)
        assert payload_files(tmp_path) == {fp(0), fp(3), fp(4)}

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
        assert payload_files(tmp_path) == {fp(0), fp(2), fp(3)}

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
            survivors.append(payload_files(tmp_path / run))
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
        assert (tmp_path / META_NAME).exists()

    def test_eviction_rewrites_the_shard_index(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=2)
        for index in range(5):
            cache.store(fp(index), result)
        assert index_fingerprints(tmp_path) == payload_files(tmp_path)

    def test_evicted_entry_also_leaves_the_memory_tier(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=1)
        cache.store(fp(0), result)
        cache.store(fp(1), result)
        assert cache.lookup(fp(0), request_for()) is None
        assert cache.stats["memory_hits"] == 0

    @pytest.mark.parametrize("bound", ["max_bytes", "max_entries"])
    @pytest.mark.parametrize("value", [0, -1, "three"])
    def test_invalid_bounds_rejected(self, tmp_path, bound, value):
        with pytest.raises(ValueError, match=bound):
            CompileCache(directory=tmp_path, **{bound: value})

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


# ---------------------------------------------------------------------------
# Index <-> directory consistency
# ---------------------------------------------------------------------------


class TestIndexDirectoryConsistency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fresh_handle_catalog_matches_directory_after_random_ops(
        self, tmp_path, result, seed
    ):
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
        on_disk = payload_files(tmp_path)
        fresh = CompileCache(directory=tmp_path)
        assert set(fresh._catalog_entries()) == on_disk
        assert index_fingerprints(tmp_path) == on_disk

    def test_orphan_payload_is_adopted_and_reindexed(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        (tmp_path / fp(1)[:2] / INDEX_NAME).unlink()  # crash before the append
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        assert fresh.lookup(fp(1), request_for()) is not None  # directory is truth
        fresh.store(fp(2), result)  # next write heals the index
        assert index_fingerprints(tmp_path) == {fp(1), fp(2)}

    def test_index_record_without_payload_is_dropped(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        cache.store(fp(2), result)
        (tmp_path / fp(1)[:2] / f"{fp(1)}.json").unlink()  # crash mid-eviction
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        assert fresh.lookup(fp(1), request_for()) is None
        assert fresh.disk_stats()["entries"] == 1
        fresh.store(fp(3), result)
        assert fp(1) not in index_fingerprints(tmp_path)

    def test_torn_trailing_index_line_is_skipped_and_compacted(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        cache.store(fp(1), result)
        index_path = tmp_path / fp(1)[:2] / INDEX_NAME
        with open(index_path, "a") as handle:
            handle.write('{"op":"put","fp":"')  # half a line, no newline
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        assert fresh.lookup(fp(1), request_for()) is not None
        fresh.store(fp(1), result)  # the write compacts the dirty shard
        for line in index_path.read_text().splitlines():
            json.loads(line)  # every surviving line parses

    def test_clear_removes_entries_indexes_and_meta(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path, max_entries=2)
        for index in range(4):
            cache.store(fp(index), result)
        removed = cache.clear()
        assert removed["disk_entries"] == 2
        assert payload_files(tmp_path) == set()
        assert list(tmp_path.rglob(INDEX_NAME)) == []
        assert not (tmp_path / META_NAME).exists()
        cache.store(fp(9), result)  # the store works again after a clear
        assert payload_files(tmp_path) == {fp(9)}

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
# Crash consistency: each state is built on disk or by one failing OS call
# ---------------------------------------------------------------------------


def entry_path(directory: Path, fingerprint: str) -> Path:
    return directory / fingerprint[:2] / f"{fingerprint}.json"


def write_meta(text: str):
    def damage(directory: Path, fingerprint: str) -> None:
        (directory / META_NAME).write_text(text)

    return damage


def rewrite_put_record(**fields):
    def damage(directory: Path, fingerprint: str) -> None:
        index_path = directory / fingerprint[:2] / INDEX_NAME
        record = json.loads(index_path.read_text().splitlines()[0])
        index_path.write_text(json.dumps({**record, **fields}) + "\n")

    return damage


def append_to_index(data: bytes):
    def damage(directory: Path, fingerprint: str) -> None:
        with open(directory / fingerprint[:2] / INDEX_NAME, "ab") as handle:
            handle.write(data)

    return damage


class TestCrashConsistency:
    def test_torn_index_append_never_raises_and_heals_on_next_write(
        self, tmp_path, result
    ):
        CompileCache(max_memory_entries=0, directory=tmp_path).store(fp(1), result)
        index_path = tmp_path / fp(1)[:2] / INDEX_NAME
        text = index_path.read_text()
        index_path.write_text(text[: len(text) // 2])  # the entry's only record, torn
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        # the payload file is the truth: the entry still serves
        assert fresh.lookup(fp(1), request_for()) is not None
        fresh.store(fp(2), result)  # a clean write compacts the torn shard
        assert index_fingerprints(tmp_path) == {fp(1), fp(2)}
        for index_path in tmp_path.rglob(INDEX_NAME):
            for line in index_path.read_text().splitlines():
                json.loads(line)

    def test_stale_index_record_degrades_to_miss_then_recovers(self, tmp_path, caplog):
        request = request_for()
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        clean = api_compile(request, cache=cache)  # store loads the catalog
        with open(entry_path(tmp_path, request_fingerprint(request)), "a") as handle:
            handle.write(" ")  # still parses, digest still matches: only the size moved
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            recomputed = api_compile(request, cache=cache)
        assert cache.stats["stale_index_misses"] == 1
        assert bits_of(recomputed) == bits_of(clean)
        assert any("stale" in record.message for record in caplog.records)
        api_compile(request, cache=cache)
        assert cache.stats["disk_hits"] == 1  # healed: the entry hits again

    def test_evicted_underfoot_degrades_to_miss_then_recovers(self, tmp_path):
        request = request_for()
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        clean = api_compile(request, cache=cache)
        entry_path(tmp_path, request_fingerprint(request)).unlink()  # another writer evicted it
        recomputed = api_compile(request, cache=cache)
        assert bits_of(recomputed) == bits_of(clean)
        assert cache.stats["misses"] == 2
        api_compile(request, cache=cache)
        assert cache.stats["disk_hits"] == 1

    def test_read_denied_shard_recomputes_identically(self, tmp_path, monkeypatch, caplog):
        request = request_for()
        clean = api_compile(request, cache=False)
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        read_bytes = Path.read_bytes

        def denied(path):
            # Tests may run as root, which chmod cannot deny: fail the call itself.
            if tmp_path in path.parents:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", denied)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            api_compile(request, cache=cache)
            again = api_compile(request, cache=cache)
        assert bits_of(again) == bits_of(clean)
        assert cache.stats["disk_hits"] == 0 and cache.stats["misses"] == 2
        assert any("unreadable" in record.message for record in caplog.records)

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES], ids=["enospc", "eacces"])
    def test_failed_write_leaves_the_memory_tier_only(self, tmp_path, monkeypatch, code):
        request = request_for()
        clean = api_compile(request, cache=False)
        cache = CompileCache(directory=tmp_path)
        replace = os.replace

        def failing_replace(source, target, **kwargs):
            if tmp_path in Path(target).parents:
                raise OSError(code, os.strerror(code), str(target))
            return replace(source, target, **kwargs)

        monkeypatch.setattr(os, "replace", failing_replace)
        first = api_compile(request, cache=cache)  # returns: the failure stays inside
        second = api_compile(request, cache=cache)
        assert bits_of(first) == bits_of(clean) == bits_of(second)
        assert cache.stats["memory_hits"] == 1 and cache.stats["disk_hits"] == 0
        assert payload_files(tmp_path) == set()
        assert list(tmp_path.rglob(".tmp-*")) == []

    @pytest.mark.parametrize(
        "damage",
        [
            write_meta("[1, 2]"),
            write_meta('{"seq": Infinity}'),
            write_meta('{"evictions": Infinity}'),
            rewrite_put_record(seq="x"),
            rewrite_put_record(seq=[1]),
            rewrite_put_record(created="yesterday"),
            append_to_index(b"\xff\n"),
        ],
        ids=[
            "meta-not-an-object",
            "meta-infinite-seq",
            "meta-infinite-evictions",
            "index-seq-string",
            "index-seq-list",
            "index-created-string",
            "index-not-utf8",
        ],
    )
    def test_malformed_metadata_never_raises(self, tmp_path, damage):
        request = request_for()
        clean = api_compile(request, cache=CompileCache(directory=tmp_path))
        damage(tmp_path, request_fingerprint(request))
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        first = api_compile(request, cache=cache)
        second = api_compile(request, cache=cache)
        assert bits_of(first) == bits_of(clean) == bits_of(second)
        assert cache.stats["disk_hits"] == 2
        assert cache.info()["disk_entries"] == 1


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

    def test_readonly_store_still_feeds_the_memory_tier(self, tmp_path, result):
        reader = CompileCache(directory=tmp_path, readonly=True)
        reader.store(fp(1), result)
        assert reader.lookup(fp(1), request_for()) is not None
        assert reader.stats["memory_hits"] == 1
        assert payload_files(tmp_path) == set()

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
        neither raise nor leave the catalog apart from the directory."""
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
            # stall each writer at every file operation.
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
        on_disk = payload_files(tmp_path)
        assert len(on_disk) == 20
        assert set(CompileCache(directory=tmp_path)._catalog_entries()) == on_disk
        assert not any("cannot persist" in record.message for record in caplog.records)

    def test_writer_handoff_stays_bounded_and_deterministic(self, tmp_path, result):
        """The single-writer contract allows *sequential* handoff: a fresh
        writer picking up the directory recovers the catalog, sequence and
        bounds, and converges to the same deterministic survivor set as one
        writer doing all the puts."""
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
        assert payload_files(tmp_path / "handoff") == payload_files(tmp_path / "single")


# ---------------------------------------------------------------------------
# The vanishing-entry regression (non-atomic scan-then-stat)
# ---------------------------------------------------------------------------


class TestVanishingEntriesMidScan:
    def test_disk_stats_tolerates_entries_vanishing_between_scan_and_stat(
        self, tmp_path, result, monkeypatch
    ):
        cache = CompileCache(directory=tmp_path)
        for index in range(3):
            cache.store(fp(index), result)
        doomed = tmp_path / fp(1)[:2] / f"{fp(1)}.json"
        original_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self == doomed:
                # a concurrent `clear` unlinked the entry after the scan
                raise FileNotFoundError(2, "vanished mid-scan", str(self))
            return original_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        stats = cache.disk_stats()  # the regression: this used to raise
        assert stats["entries"] == 2
        info = cache.info()
        assert info["disk_entries"] == 2

    def test_clear_tolerates_entries_already_removed(self, tmp_path, result, monkeypatch):
        cache = CompileCache(directory=tmp_path)
        for index in range(3):
            cache.store(fp(index), result)
        doomed = tmp_path / fp(1)[:2] / f"{fp(1)}.json"
        original_unlink = Path.unlink

        def racing_unlink(self, missing_ok=False):
            if self == doomed:
                original_unlink(self)  # the other process got there first
            return original_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        removed = cache.clear()  # must not raise on the double unlink
        assert removed["disk_entries"] == 2
        assert payload_files(tmp_path) == set()

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

    def test_age_histogram_buckets_every_entry(self, tmp_path, result):
        cache = CompileCache(directory=tmp_path)
        for index in range(4):
            cache.store(fp(index), result)
        histogram = cache.info()["disk_age_histogram"]
        assert sum(histogram.values()) == 4
        assert histogram["<=1m"] == 4  # just written

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
