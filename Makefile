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
## delta scorer against re-summation, Qlosure's M(s) scorer against a
## brute-force evaluation, and the dependence weights omega against Eq. 1
## written as a polyhedral relation and its closure (tests/polyhedral/): the
## DAG's bitset counts, and the weights a Qlosure router holds, on random
## circuits with barriers and measurements, plus the routing engine's own
## tests: the choice rule every router but qmap shares, the stall record
## every router reads (SWAPs since progress, last SWAP, decay), the release
## valve and the per-layer hook, and the stress corpus on which every router
## must finish, with its own valve threshold and with the valve opening after
## two SWAPs.  The look-ahead each router builds once per front layer is
## checked at every stall: Qlosure's window against the reference builder
## (tests/core/lookahead_oracle.py), its window scorer (with the candidate
## deltas it kept from the layer's previous stall) against one built at that
## stall, and the extended set and next slices of sabre, cirq and tket
## against a fresh build.  At every stall and after every committed SWAP of
## every router on the stress corpus, the engine's kept front views (the
## unresolved front, its pairs and partners, footprint and candidate list)
## equal a brute-force rebuild (tests/routing/test_invariants.py).
## tests/baselines/test_tket_oracle.py checks tket's cost function against
## its lexicographic (longest, total) rule, re-summed in
## tests/baselines/tket_oracle.py: at every stall of the golden and stress
## routes the engine's tie list equals the rule's.  A drifting scorer, window,
## omega, choice rule, stall record or valve fails here in seconds.
test-golden:
	$(PYTHON) -m pytest tests/routing/test_golden.py tests/routing/test_astar_properties.py \
		tests/routing/test_pair_delta_scorer.py tests/routing/test_engine.py \
		tests/routing/test_stress.py tests/core/test_cost.py tests/core/test_lookahead.py \
		tests/baselines/test_tket_oracle.py tests/affine/test_dependence.py \
		tests/integration/test_end_to_end.py::TestFullPipeline::test_dependence_weights_feed_the_router \
		tests/routing/test_invariants.py::test_cached_front_state_matches_brute_force -q

## Compile-cache battery: the Gate record's contract (a disk hit, and a
## memory hit's routed circuit on its first read, build each distinct routed
## gate through it), serialization round-trip exactness (golden-hash oracle)
## and the pinned version-2 gate table, the stored circuit a memory hit
## returns (equal to the eager decode, encoding back to its table until read),
## where hits decode (counted by wrapping the codec), fingerprint sensitivity
## and pinned cache keys, warm-vs-cold bit-for-bit determinism and
## bad-disk-entry robustness.  Fast (~5 s); runs in `make check` right after
## the golden snapshots, before the slow suite.
test-cache:
	$(PYTHON) -m pytest tests/circuit/test_gate.py tests/api/test_serialize.py \
		tests/api/test_fingerprint.py tests/api/test_cache.py \
		tests/analysis/test_perf_trajectory.py -q

## Disk-tier battery (one SQLite database per cache directory): the row
## layout and its digest, max_bytes/max_entries LRU eviction invariants
## (including seeded random interleavings), an evicting put issuing the same
## SQL statements at 50 and at 500 entries (counted with the connection's
## trace callback), bound validation, the totals row equal to the entries,
## warm==cold bit-for-bit under eviction pressure, readonly fleet mode
## racing a live writer and never writing a byte, two threads storing 300
## entries each into one 20-entry handle while a third looks up
## (TestConcurrencyStress::test_threads_share_one_bounded_handle: no raise,
## totals == entries), and the whole disk-failure battery: a truncated
## database, a file that is not a database, a corrupt row, an entry deleted
## under the reader, a locked database and a failed write (locked, full or
## refused), each made on disk, each degrading to a recomputed miss; a damaged
## database costs a handle one open and one warning, not one per operation.
test-cache-store:
	$(PYTHON) -m pytest tests/api/test_cache_store.py tests/serve/test_serve_cache.py -q

## Batch executor and failure-contract suite (~4 s), the whole compile_many
## contract: worker-count determinism (test_batch.py), structured per-request
## failures (on_error="collect"), timeouts, retries with deterministic seeded
## backoff, worker-crash isolation, forks per batch (pool size plus one per
## respawn; a child replies with the result's payload, which the parent
## rebuilds without decoding), determinism-under-failure (faulted siblings
## never perturb clean results), and child spans stitched into the batch
## trace span for span (test_trace_propagation.py).  Faults come from the
## test suite's own plan (tests/faults.py, the `faults` fixture), which wraps
## the one compile call of each attempt; test_faults.py checks that plan and
## fails if src/repro names a fault harness or any entry point, ServeConfig
## or command accepts one.
test-faults:
	$(PYTHON) -m pytest tests/api/test_faults.py tests/api/test_batch_failures.py \
		tests/api/test_batch.py tests/obs/test_trace_propagation.py -q

## Compile-service suite: wire codecs and error mapping, handler-level
## service semantics (priority order through the service, a full queue's 429
## for compiles and batches, coalescing, jobs and their retention bound, drain
## with queued work, faults from the test suite's plan (tests/faults.py)
## through the service path, served hits on /v1/compile and /v1/batch sending
## the stored gate table with no codec call counted, served misses with no
## encode and one table copy each, a circuit wider than its backend answering
## 400, 150 concurrent distinct misses on two workers and a 5-entry disk cache
## each answering 200 (TestConcurrentBoundedMisses in test_serve_cache.py),
## and /metrics reading disk statistics off the event loop, even while every
## compile thread is busy), the service's forked compile children
## (test_serve_pool.py: misses compile in children forked once per service
## plus one per timeout, a client reads EOF while a child lives, and no child
## outlives run_server), plus one loopback HTTP smoke proving served-vs-direct
## bit-for-bit parity, single-execution coalescing, 429 + Retry-After, bounded
## request and header lines, a rejected request's 400 read intact after a
## bounded discard of its unread bytes, and drain-exits-0.  Runs in Python's
## development mode with ResourceWarning and unraisable exceptions as errors,
## so an unclosed socket or pipe fails the suite.  Fast (~15 s); no ports are
## bound except by the loopback tests (ephemeral, 127.0.0.1 only).
test-serve:
	$(PYTHON) -X dev -m pytest tests/serve -q -W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning

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
## suite), then the compile-cache battery, then the disk-tier battery,
## then the fault-injection suite, then the compile-service suite,
## then the benchmark self-test, then tier-1 tests, then a CLI smoke of the
## public surface
## (`repro-map map` routes through repro.api.compile, from a generator spec,
## with a baseline's own bidirectional layout passes, and from QASM files: its
## own routed output read back, which holds SWAPs mid-circuit, and a
## hand-written corpus file with user gates, all verified; `bench --quick` drives
## the compile_many batch driver on a reduced fixture, run twice against one
## --cache-dir so the second run exercises warm disk hits end to end).
check: test-golden test-cache test-cache-store test-faults test-serve bench-selftest test-obs test
	$(PYTHON) -m repro map --generate qft:12 --backend ankaa3 --mapper sabre --verify
	$(PYTHON) -m repro map --generate ghz:10 --mapper qlosure --verify
	$(PYTHON) -m repro map --generate qft:10 --mapper sabre --bidirectional-passes 1 --verify
	$(PYTHON) -m repro map --generate qft:10 --no-cache --trace-out $(or $(TMPDIR),/tmp)/repro-check.trace.jsonl
	$(PYTHON) -m repro map --generate qft:10 --no-cache --output $(or $(TMPDIR),/tmp)/repro-check.qasm
	$(PYTHON) -m repro map --qasm $(or $(TMPDIR),/tmp)/repro-check.qasm --no-cache --verify
	$(PYTHON) -m repro map --qasm tests/data/qasm-corpus/user_gates.qasm --no-cache --verify
	$(PYTHON) -m repro trace summarize $(or $(TMPDIR),/tmp)/repro-check.trace.jsonl
	$(PYTHON) -m repro trace chrome $(or $(TMPDIR),/tmp)/repro-check.trace.jsonl --output $(or $(TMPDIR),/tmp)/repro-check.chrome.json
	rm -rf $(or $(TMPDIR),/tmp)/repro-cache-check
	$(PYTHON) -m repro bench --quick --workers 2 --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check --output $(or $(TMPDIR),/tmp)/BENCH_quick.json
	$(PYTHON) -m repro bench --quick --workers 2 --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check --output $(or $(TMPDIR),/tmp)/BENCH_quick_warm.json --compare $(or $(TMPDIR),/tmp)/BENCH_quick.json
	$(PYTHON) -m repro cache info --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check
	$(PYTHON) -m repro cache clear --cache-dir $(or $(TMPDIR),/tmp)/repro-cache-check
	@echo "make check: OK"
