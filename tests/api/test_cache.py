"""Determinism and robustness tests for :mod:`repro.api.cache`.

The load-bearing guarantee: a warm-cache :func:`repro.api.compile_many` run
is bit-for-bit identical to a cold serial run for every worker count, and
bad persisted state (corrupt, truncated or version-mismatched disk entries)
degrades to a recompute -- logged, never raised.
"""

import hashlib
import json
import sqlite3
from contextlib import closing

import pytest

import repro.api.batch as api_batch
import repro.api.pipeline as api_pipeline
from repro.api import (
    CACHE_SCHEMA_VERSION,
    CompileCache,
    CompileRequest,
    compile as api_compile,
    compile_many,
    compile_uncached,
    default_cache,
    request_fingerprint,
    result_to_payload,
    set_default_cache,
)
from repro.api.cache import DATABASE_NAME
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.hardware.topologies import grid_topology
from repro.qasm.writer import circuit_to_qasm

GRID = grid_topology(4, 4)


def gates_of(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def bits_of(result):
    """Everything deterministic about a result (wall-clock timing excluded:
    two independent *computations* of one request route identical bits but
    measure different seconds; a cache *replay* additionally preserves the
    stored timings, which TestWarmCacheDeterminism checks separately)."""
    metrics = {k: v for k, v in result.metrics.items() if k != "runtime_seconds"}
    return (
        gates_of(result.routed_circuit),
        result.routing.initial_layout,
        result.routing.final_layout,
        metrics,
    )


def stored_row(directory, fingerprint):
    """The ``(schema, digest, payload)`` columns of one disk entry."""
    with closing(sqlite3.connect(directory / DATABASE_NAME)) as db:
        return db.execute(
            "SELECT schema, digest, payload FROM entries WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()


def digest_of(fingerprint, text):
    """The integrity digest the disk tier files with an entry's payload text."""
    return hashlib.sha256((fingerprint + text).encode()).hexdigest()


def workload():
    return [
        CompileRequest(circuit=circuit, backend=GRID, router=router, seed=seed)
        for router in ("sabre", "tket", "greedy", "qlosure")
        for circuit in (ghz_circuit(8), qft_circuit(6))
        for seed in (0, 2)
    ]


@pytest.fixture
def fresh_default_cache():
    """Swap in an empty process default cache and restore the old one after."""
    previous = set_default_cache(CompileCache())
    yield default_cache()
    set_default_cache(previous)


class TestWarmCacheDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_batch_is_bit_for_bit_identical_to_cold_serial(self, workers):
        requests = workload()
        cold = compile_many(requests, workers=1, cache=False)
        cache = CompileCache()
        first = compile_many(requests, workers=workers, cache=cache)
        warm = compile_many(requests, workers=workers, cache=cache)
        assert first.cache_misses == len(requests) and first.cache_hits == 0
        assert warm.cache_hits == len(requests) and warm.cache_misses == 0
        for cold_result, first_result, warm_result in zip(cold, first, warm):
            assert bits_of(warm_result) == bits_of(cold_result)
            assert bits_of(first_result) == bits_of(cold_result)
            # the replay reproduces the stored run wholesale, timings included
            assert warm_result.metrics == first_result.metrics
            assert warm_result.pass_timings == first_result.pass_timings

    @pytest.mark.parametrize("workers", [1, 2])
    def test_disk_warmed_batch_matches_cold_serial(self, workers, tmp_path):
        requests = workload()[:6]
        cold = compile_many(requests, workers=1, cache=False)
        compile_many(requests, workers=1, cache=CompileCache(directory=tmp_path))
        # A brand-new cache object: every hit must come from disk.
        warm_cache = CompileCache(directory=tmp_path)
        warm = compile_many(requests, workers=workers, cache=warm_cache)
        assert warm.cache_hits == len(requests)
        assert warm_cache.stats["disk_hits"] == len(requests)
        for cold_result, warm_result in zip(cold, warm):
            assert bits_of(warm_result) == bits_of(cold_result)

    def test_hits_preserve_original_pass_timings(self):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="sabre")
        cache = CompileCache()
        first = api_compile(request, cache=cache)
        replayed = api_compile(request, cache=cache)
        assert replayed.pass_timings == first.pass_timings
        assert replayed.route_seconds == first.route_seconds

    def test_gate_labels_survive_memory_and_disk_hits(self, tmp_path):
        circuit = QuantumCircuit(4, name="labelled")
        circuit.append(Gate("h", (0,), label="prep"))
        for qubit in range(3):
            circuit.append(Gate("cx", (qubit, qubit + 1), label=f"link{qubit}"))
        request = CompileRequest(circuit=circuit, backend=GRID, router="sabre")

        def labelled(result):
            return [(g.name, g.qubits, g.label) for g in result.routed_circuit]

        cache = CompileCache(directory=tmp_path)
        cold = api_compile(request, cache=cache)
        memory_hit = api_compile(request, cache=cache)
        disk_cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        disk_hit = api_compile(request, cache=disk_cache)
        assert cache.stats["memory_hits"] == 1 and disk_cache.stats["disk_hits"] == 1
        assert ("h", (0,), "prep") in labelled(cold)
        assert labelled(memory_hit) == labelled(cold)
        assert labelled(disk_hit) == labelled(cold)

    def test_compile_uses_the_default_cache_by_default(self, fresh_default_cache):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="greedy")
        first = api_compile(request)
        second = api_compile(request)
        assert fresh_default_cache.stats["memory_hits"] == 1
        assert bits_of(second) == bits_of(first)

    def test_cache_false_bypasses_the_default_cache(self, fresh_default_cache):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="greedy")
        api_compile(request, cache=False)
        api_compile(request, cache=False)
        assert all(value == 0 for value in fresh_default_cache.stats.values())

    def test_invalid_cache_argument_raises_type_error(self):
        request = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")
        with pytest.raises(TypeError, match="cache"):
            api_compile(request, cache="yes please")


class TestBadDiskEntries:
    """Corrupt persisted state must degrade to a miss, logged, never raised."""

    def _seed_entry(self, tmp_path, request):
        cache = CompileCache(directory=tmp_path)
        result = api_compile(request, cache=cache)
        fingerprint = request_fingerprint(request)
        assert stored_row(tmp_path, fingerprint) is not None
        return result, fingerprint

    def _recompute(self, tmp_path, request, caplog):
        """A fresh disk-backed cache must recover by recomputing."""
        cache = CompileCache(directory=tmp_path)
        with caplog.at_level("WARNING", logger="repro.api.cache"):
            result = api_compile(request, cache=cache)
        assert cache.stats["disk_hits"] == 0
        assert cache.stats["misses"] == 1
        return result

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncated", "schema_mismatch", "payload_version_mismatch",
         "fingerprint_mismatch", "not_an_object", "gate_table_under_its_digest"],
    )
    def test_bad_entry_is_a_logged_miss_and_recomputes_identically(
        self, tmp_path, caplog, corruption
    ):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="tket")
        original, fingerprint = self._seed_entry(tmp_path, request)
        schema, digest, text = stored_row(tmp_path, fingerprint)
        payload = json.loads(text)
        if corruption == "garbage":
            text = "{not json at all"
            digest = digest_of(fingerprint, text)
        elif corruption == "truncated":
            text = text[: len(text) // 2]  # the digest is still the whole text's
        elif corruption == "schema_mismatch":
            schema = CACHE_SCHEMA_VERSION + 1
        elif corruption == "payload_version_mismatch":
            payload["version"] = 999
            text = json.dumps(payload)
            digest = digest_of(fingerprint, text)
        elif corruption == "fingerprint_mismatch":
            # the row another fingerprint stored, filed under this one
            digest = digest_of("0" * 64, text)
        elif corruption == "not_an_object":
            text = json.dumps([1, 2, 3])
            digest = digest_of(fingerprint, text)
        elif corruption == "gate_table_under_its_digest":
            # A disk hit decodes inside lookup, before it counts as a hit.
            payload["routing"]["routed_circuit"]["ops"] += " 99"
            text = json.dumps(payload)
            digest = digest_of(fingerprint, text)
        with closing(sqlite3.connect(tmp_path / DATABASE_NAME)) as db, db:
            db.execute(
                "UPDATE entries SET schema = ?, digest = ?, payload = ? WHERE fingerprint = ?",
                (schema, digest, text, fingerprint),
            )
        recomputed = self._recompute(tmp_path, request, caplog)
        assert bits_of(recomputed) == bits_of(original)
        # every corruption leaves evidence in the log
        assert any("miss" in record.message for record in caplog.records)

    def test_unwritable_directory_degrades_to_memory_tier(self, tmp_path, caplog):
        blocked = tmp_path / "cache"
        blocked.write_text("a file where the cache dir should be")
        cache = CompileCache(directory=blocked)
        request = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")
        with caplog.at_level("WARNING", logger="repro.api.cache"):
            api_compile(request, cache=cache)  # must not raise
        hit = api_compile(request, cache=cache)
        assert cache.stats["memory_hits"] == 1
        assert gates_of(hit.routed_circuit)


class TestTiers:
    def test_memory_lru_evicts_oldest(self):
        cache = CompileCache(max_memory_entries=2)
        requests = [
            CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy", seed=s)
            for s in range(3)
        ]
        for request in requests:
            api_compile(request, cache=cache)
        assert len(cache) == 2
        api_compile(requests[0], cache=cache)  # evicted: recompute, not a hit
        assert cache.stats["memory_hits"] == 0
        api_compile(requests[0], cache=cache)  # now resident again
        assert cache.stats["memory_hits"] == 1

    def test_zero_memory_entries_disables_the_memory_tier(self, tmp_path):
        cache = CompileCache(max_memory_entries=0, directory=tmp_path)
        request = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")
        api_compile(request, cache=cache)
        api_compile(request, cache=cache)
        assert len(cache) == 0
        assert cache.stats["disk_hits"] == 1

    def test_store_returns_the_payload_it_stored(self, tmp_path):
        request = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")
        result = compile_uncached(request)
        fingerprint = request_fingerprint(request)
        payload = CompileCache(directory=tmp_path).store(fingerprint, result)
        assert payload == result_to_payload(result)
        assert json.loads(stored_row(tmp_path, fingerprint)[2]) == payload

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        request = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy")
        api_compile(request, cache=CompileCache(directory=tmp_path))
        cache = CompileCache(directory=tmp_path)
        api_compile(request, cache=cache)
        api_compile(request, cache=cache)
        assert cache.stats["disk_hits"] == 1
        assert cache.stats["memory_hits"] == 1

    def test_a_memory_hit_decodes_its_gate_table_on_first_read(self, codec_calls):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="sabre")
        cache = CompileCache()
        cold = api_compile(request, cache=cache)
        hit = cache.lookup(request_fingerprint(request), request)
        assert cache.stats["memory_hits"] == 1
        assert hit.metrics == cold.metrics
        assert codec_calls.decodes == 0
        assert gates_of(hit.routed_circuit) == gates_of(cold.routed_circuit)
        assert hit.swaps_added == cold.swaps_added
        assert codec_calls.decodes == 1

    def test_a_disk_hit_decodes_its_gate_table_in_lookup(self, tmp_path, codec_calls):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="sabre")
        cold = api_compile(request, cache=CompileCache(directory=tmp_path))
        cache = CompileCache(directory=tmp_path)
        decodes = codec_calls.decodes
        hit = cache.lookup(request_fingerprint(request), request)
        assert cache.stats["disk_hits"] == 1
        assert codec_calls.decodes == decodes + 1
        assert gates_of(hit.routed_circuit) == gates_of(cold.routed_circuit)
        assert codec_calls.decodes == decodes + 1

    def test_info_and_clear(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        for seed in range(2):
            api_compile(
                CompileRequest(
                    circuit=ghz_circuit(6), backend=GRID, router="greedy", seed=seed
                ),
                cache=cache,
            )
        info = cache.info()
        assert info["schema"] == CACHE_SCHEMA_VERSION
        assert info["disk_entries"] == 2
        assert info["memory_entries"] == 2
        assert info["disk_bytes"] > 0
        removed = cache.clear()
        assert removed == {"memory_entries": 2, "disk_entries": 2}
        assert cache.info()["disk_entries"] == 0
        assert len(cache) == 0

    def test_failed_compiles_are_never_cached(self, fresh_default_cache):
        request = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="nope")
        with pytest.raises(KeyError):
            api_compile(request)
        assert fresh_default_cache.stats["stores"] == 0
        assert len(fresh_default_cache) == 0


class TestPartialBatchFailure:
    def test_completed_results_are_cached_before_a_later_request_fails(self):
        good = [
            CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="greedy", seed=s)
            for s in range(2)
        ]
        bad = CompileRequest(circuit=ghz_circuit(6), backend=GRID, router="nope")
        cache = CompileCache()
        with pytest.raises(KeyError):
            compile_many(good + [bad], workers=1, cache=cache)
        # the two requests routed before the failure survived into the cache
        assert cache.stats["stores"] == 2
        retry = compile_many(good, workers=1, cache=cache)
        assert retry.cache_hits == 2


class TestDuplicateRequestsInOneBatch:
    def test_duplicates_all_computed_cold_then_all_hit_warm(self):
        request = CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="sabre")
        cache = CompileCache()
        cold = compile_many([request, request, request], cache=cache)
        assert cold.cache_misses == 3  # no intra-batch dedup: rounds stay honest
        warm = compile_many([request, request, request], cache=cache)
        assert warm.cache_hits == 3
        reference = compile_uncached(request)
        for result in list(cold) + list(warm):
            assert gates_of(result.routed_circuit) == gates_of(reference.routed_circuit)


class TestQasmEditedDuringCompile:
    """A ``qasm=`` file rewritten between fingerprinting and loading.

    The request is fingerprinted on content A; while it compiles the file
    reads B; then A is restored.  The route of B must not be filed under A's
    fingerprint, or every later request for A (in this process, or in any
    process sharing the disk tier) would be answered with B's circuit.
    """

    @staticmethod
    def _edited_while(monkeypatch, module, attribute, path, during, after):
        """Make ``module.attribute`` (the compile step) run while ``path`` holds ``during``."""
        original = getattr(module, attribute)

        def compile_while_edited(request, *args, **kwargs):
            path.write_text(during)
            try:
                return original(request, *args, **kwargs)
            finally:
                path.write_text(after)

        monkeypatch.setattr(module, attribute, compile_while_edited)

    @pytest.mark.parametrize("entry", ["compile", "compile_many"])
    def test_result_is_filed_under_the_bytes_it_was_compiled_from(
        self, entry, tmp_path, monkeypatch
    ):
        a, b = circuit_to_qasm(ghz_circuit(6)), circuit_to_qasm(qft_circuit(6))
        path = tmp_path / "circuit.qasm"
        path.write_text(a)
        request = CompileRequest(qasm=path, backend=GRID, router="sabre")
        fresh_a = api_compile(request, cache=False)
        path.write_text(b)
        fresh_b = api_compile(request, cache=False)
        assert bits_of(fresh_a) != bits_of(fresh_b)
        path.write_text(a)

        cache = CompileCache(directory=tmp_path / "cache")
        if entry == "compile":
            self._edited_while(monkeypatch, api_pipeline, "compile_uncached", path, b, a)
            edited = api_compile(request, cache=cache)
        else:
            self._edited_while(monkeypatch, api_batch, "_compile", path, b, a)
            edited = compile_many([request], cache=cache).results[0]
        monkeypatch.undo()
        assert bits_of(edited) == bits_of(fresh_b)

        # The file reads A again: A's request is recompiled, not answered with B.
        for store in (cache, CompileCache(directory=tmp_path / "cache")):
            assert store.get(request) is None
        assert bits_of(api_compile(request, cache=cache)) == bits_of(fresh_a)
        # B's route is kept, under the fingerprint of B.
        path.write_text(b)
        hit = CompileCache(directory=tmp_path / "cache").get(request)
        assert hit is not None and bits_of(hit) == bits_of(fresh_b)

    def test_a_pool_child_reports_the_bytes_it_compiled_from(self, tmp_path, monkeypatch):
        # A timeout puts the one request on a forked child, which inherits
        # the edit and replies with the digest of the bytes it loaded.
        a, b = circuit_to_qasm(ghz_circuit(6)), circuit_to_qasm(qft_circuit(6))
        path = tmp_path / "circuit.qasm"
        path.write_text(b)
        request = CompileRequest(qasm=path, backend=GRID, router="sabre")
        fresh_b = api_compile(request, cache=False)
        path.write_text(a)

        cache = CompileCache()
        self._edited_while(monkeypatch, api_batch, "_compile", path, b, a)
        edited = compile_many([request], cache=cache, timeout=60).results[0]
        monkeypatch.undo()
        assert bits_of(edited) == bits_of(fresh_b)
        assert cache.get(request) is None
        path.write_text(b)
        hit = cache.get(request)
        assert hit is not None and bits_of(hit) == bits_of(fresh_b)

    def test_unchanged_file_is_stored_under_its_request_fingerprint(self, tmp_path):
        path = tmp_path / "circuit.qasm"
        path.write_text(circuit_to_qasm(ghz_circuit(6)))
        request = CompileRequest(qasm=path, backend=GRID, router="sabre")
        cache = CompileCache()
        result = api_compile(request, cache=cache)
        assert result.source_digest is not None
        assert cache.lookup(request_fingerprint(request), request) is not None
