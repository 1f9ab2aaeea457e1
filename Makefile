PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-golden test-cache test-cache-store test-faults test-serve test-obs bench bench-selftest serve check

## Tier-1 verification: the full suite including the paper benchmarks.
test:
	$(PYTHON) -m pytest -x -q

## Unit tests only (tier-1 minus the slow paper-table benchmarks/).
test-fast:
	$(PYTHON) -m pytest tests -x -q

## Golden determinism snapshots: every registered router against the pinned
## routed outputs under tests/data/golden/ (the required gate for hot-path
## changes; regen via tests/routing/test_golden.py --update-golden), plus the
## kernel oracles: the incremental A* against a textbook search, the shared
## delta scorer against re-summation, and Qlosure's M(s) scorer against a
## brute-force evaluation.  A drifting scorer fails here in seconds.
test-golden:
	$(PYTHON) -m pytest tests/routing/test_golden.py tests/routing/test_astar_properties.py \
		tests/routing/test_pair_delta_scorer.py tests/core/test_cost.py -q

## Compile-cache battery: the Gate record's contract (every cache hit
## rebuilds its routed gates through it), serialization round-trip exactness
## (golden-hash oracle) and the pinned version-2 gate table, fingerprint
## sensitivity and pinned cache keys, warm-vs-cold bit-for-bit determinism
## and bad-disk-entry robustness.  Fast (~5 s); runs in `make check` right
## after the golden snapshots, before the slow suite.
test-cache:
	$(PYTHON) -m pytest tests/circuit/test_gate.py tests/api/test_serialize.py \
		tests/api/test_fingerprint.py tests/api/test_cache.py \
		tests/analysis/test_perf_trajectory.py -q

## Bounded piece-store battery: shard layout + per-shard indexes, max_bytes/
## max_entries LRU eviction invariants (including seeded random
## interleavings), index<->directory crash consistency (torn lines, orphans,
## stale records), warm==cold bit-for-bit under eviction pressure, readonly
## fleet mode racing a live writer, and the vanishing-entry-mid-scan
## regression.
test-cache-store:
	$(PYTHON) -m pytest tests/api/test_cache_store.py tests/serve/test_serve_cache.py -q

## Fault-injection suite: structured per-request failures (on_error="collect"),
## timeouts, retries with deterministic seeded backoff, worker-crash
## isolation, determinism-under-failure (faulted siblings never perturb clean
## results), and disk-tier failure simulation always degrading to a miss.
test-faults:
	$(PYTHON) -m pytest tests/api/test_faults.py tests/api/test_batch_failures.py -q

## Compile-service suite: queue ordering/backpressure, wire codecs and error
## mapping, handler-level service semantics (coalescing, jobs, drain, fault
## injection through the service path), plus one loopback HTTP smoke proving
## served-vs-direct bit-for-bit parity, single-execution coalescing,
## 429 + Retry-After and drain-exits-0.  Fast (~15 s); no ports are bound
## except by the loopback tests (ephemeral, 127.0.0.1 only).
test-serve:
	$(PYTHON) -m pytest tests/serve -q

## Observability suite: span recording/propagation, cross-process batch
## stitching, JSONL/Chrome exporters, trace CLI, Prometheus exposition,
## logging setup, traced==untraced bit-identity, and the no-op tracer
## overhead gate (<2% on the compile hot path).  Fast (~5 s).
test-obs:
	$(PYTHON) -m pytest tests/obs tests/serve/test_serve_obs.py tests/serve/test_serve_metrics.py -q

## Benchmark self-test (~35 s): every perfbench workload at tiny sizes, traced
## and untraced.  Fails when a function the benchmark wraps (the payload codec,
## fingerprinting, load_circuit, the service's response encoder) is renamed or
## no longer reached, or when a record disagrees with `repro-map trace summarize`.
bench-selftest:
	$(PYTHON) perfbench/selftest.py

## Run the compile service locally on the default port (Ctrl-C to stop,
## `curl -X POST localhost:8653/admin/drain` for a graceful exit).
serve:
	$(PYTHON) -m repro serve --workers 2

## Routing perf smoke: routes a pinned QUEKO workload with every router and
## writes BENCH_routing.json, the machine-readable perf trajectory.
## `$(PYTHON) -m repro bench --output X.json --compare BENCH_routing.json`
## fails on any per-router mean swaps/depth drift.
bench:
	$(PYTHON) -m repro bench

## Pre-commit gate: golden determinism snapshots and kernel oracles first (a
## routed-output or scorer regression fails in seconds, before the slow
## suite), then the compile-cache battery, then the bounded piece-store
## battery, then the fault-injection suite, then the compile-service suite,
## then the benchmark self-test, then tier-1 tests, then a CLI smoke of the
## public surface
## (`repro-map map` routes through repro.api.compile; `bench --quick` drives
## the compile_many batch driver on a reduced fixture, run twice against one
## --cache-dir so the second run exercises warm disk hits end to end).
check: test-golden test-cache test-cache-store test-faults test-serve bench-selftest test-obs test
	$(PYTHON) -m repro map --generate qft:12 --backend ankaa3 --mapper sabre --verify
	$(PYTHON) -m repro map --generate ghz:10 --mapper qlosure --verify
	$(PYTHON) -m repro map --generate qft:10 --no-cache --trace-out $(or $(TMPDIR),/tmp)/repro-check.trace.jsonl
	$(PYTHON) -m repro trace summarize $(or $(TMPDIR),/tmp)/repro-check.trace.jsonl
	$(PYTHON) -m repro trace chrome $(or $(TMPDIR),/tmp)/repro-check.trace.jsonl --output $(or $(TMPDIR),/tmp)/repro-check.chrome.json
	rm -rf $(or $(TMPDIR),/tmp)/repro-cache-check
	$(PYTHON) -m repro bench --quick --workers 2 --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check --output $(or $(TMPDIR),/tmp)/BENCH_quick.json
	$(PYTHON) -m repro bench --quick --workers 2 --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check --output $(or $(TMPDIR),/tmp)/BENCH_quick_warm.json --compare $(or $(TMPDIR),/tmp)/BENCH_quick.json
	$(PYTHON) -m repro cache info --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check
	$(PYTHON) -m repro cache clear --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check
	@echo "make check: OK"
