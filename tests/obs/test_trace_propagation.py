"""End-to-end trace propagation: pipeline spans, batch stitching, cache events.

The load-bearing claims of the telemetry layer:

* one ``compile()`` under a tracer yields the full pass-span sequence with
  routing-kernel counter attributes on the route span,
* ``compile_many`` stitches worker spans under one batch trace id for
  workers in {1, 2}, with parallel runs span-for-span identical (names and
  attributes; durations and ids are obviously run-specific) to serial runs,
* tracing is observational only: traced output is bit-for-bit identical to
  untraced output, and the cache emits hit/miss/eviction counters.
"""

import json

import pytest

from repro.api import (
    CompileCache,
    CompileRequest,
    compile as api_compile,
    compile_many,
    result_to_payload,
)
from repro.hardware.topologies import grid_topology
from repro.obs.trace import Tracer, use_tracer

GRID = grid_topology(4, 4)


def request(seed: int = 0, router: str = "qlosure") -> CompileRequest:
    return CompileRequest(
        generate="qft:7", backend=GRID, router=router, seed=seed
    )


def gates_of(result):
    return [
        (g.name, g.qubits, g.params) for g in result.routing.routed_circuit
    ]


def span_shape(tracer):
    """The run-independent shape of a trace: ordered (name, attributes).

    The batch span itself is excluded -- its ``workers`` attribute names the
    requested parallelism, which is exactly what serial-vs-parallel runs
    differ in.  Every other span must match span-for-span.
    """
    return [
        (span.name, dict(span.attributes))
        for span in tracer.spans
        if span.name != "batch"
    ]


class TestPipelineSpans:
    def test_compile_emits_every_pass_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            api_compile(request(), cache=False)
        names = [span.name for span in tracer.spans]
        for expected in ("load", "place", "route", "validate", "metrics", "compile"):
            assert expected in names

    def test_pass_spans_nest_under_the_compile_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            api_compile(request(), cache=False)
        by_name = {span.name: span for span in tracer.spans}
        root = by_name["compile"]
        for name in ("load", "place", "route", "validate", "metrics"):
            assert by_name[name].parent_id == root.span_id

    def test_route_span_carries_kernel_counters(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = api_compile(request(), cache=False)
        route = next(span for span in tracer.spans if span.name == "route")
        assert route.attributes["router"] == "qlosure"
        assert route.attributes["swaps"] == result.routing.swaps_added
        assert (
            route.attributes["kernel.cost_evaluations"]
            == result.routing.cost_evaluations
        )
        assert route.attributes["kernel.front_rebuilds"] > 0
        assert route.attributes["kernel.candidate_builds"] > 0
        # and the same numbers land on the tracer's counters
        assert (
            tracer.counters["kernel.cost_evaluations"]
            == result.routing.cost_evaluations
        )

    @pytest.mark.parametrize("router", ["qlosure", "qmap-like"])
    def test_heuristic_cache_hits_are_counted(self, router):
        tracer = Tracer()
        with use_tracer(tracer):
            api_compile(request(router=router), cache=False)
        assert tracer.counters["kernel.heuristic_cache_hits"] >= 0

    def test_compile_span_names_the_workload(self):
        tracer = Tracer()
        with use_tracer(tracer):
            api_compile(request(), cache=False)
        root = next(span for span in tracer.spans if span.name == "compile")
        assert root.attributes["router"] == "qlosure"
        assert root.attributes["num_qubits"] == 7


class TestObservationalOnly:
    def test_traced_output_is_bit_identical_to_untraced(self):
        baseline = api_compile(request(), cache=False)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = api_compile(request(), cache=False)
        assert gates_of(traced) == gates_of(baseline)
        assert traced.routing.final_layout == baseline.routing.final_layout
        assert traced.metrics["swaps"] == baseline.metrics["swaps"]
        assert tracer.spans  # the trace actually recorded something

    def test_traced_batch_is_bit_identical_to_untraced(self):
        reqs = [request(seed) for seed in range(3)]
        baseline = compile_many(reqs, workers=2, cache=False)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = compile_many(reqs, workers=2, cache=False)
        for a, b in zip(baseline.results, traced.results):
            assert gates_of(a) == gates_of(b)

    def test_qlosure_counts_reused_deltas_and_serializes_none(self):
        # kernel.deltas_reused: the candidates whose delta Qlosure kept from
        # the layer's previous stall.  It is a trace counter only.
        req = CompileRequest(generate="qft:12", backend=GRID, router="qlosure", seed=0)
        untraced = api_compile(req, cache=False)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = api_compile(req, cache=False)
        route = next(span for span in tracer.spans if span.name == "route")
        assert route.attributes["kernel.deltas_reused"] > 0
        assert tracer.counters["kernel.deltas_reused"] == route.attributes["kernel.deltas_reused"]
        encoded = [
            json.dumps(timing_free(result_to_payload(result)), sort_keys=True).encode()
            for result in (untraced, traced)
        ]
        assert encoded[0] == encoded[1]
        assert b"deltas_reused" not in encoded[1]


def timing_free(payload: dict) -> dict:
    """A result payload minus its wall-clock fields (pass timings, runtime)."""
    payload = {k: v for k, v in payload.items() if k != "pass_timings"}
    for part in ("routing", "metrics"):
        payload[part] = {k: v for k, v in payload[part].items() if k != "runtime_seconds"}
    return payload


class TestBatchStitching:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_spans_stitch_under_one_trace_id(self, workers):
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many([request(seed) for seed in range(3)], workers=workers, cache=False)
        assert tracer.spans
        assert {span.trace_id for span in tracer.spans} == {tracer.trace_id}

    def test_parallel_worker_spans_record_in_other_processes(self):
        import os

        tracer = Tracer()
        with use_tracer(tracer):
            compile_many([request(seed) for seed in range(3)], workers=2, cache=False)
        pids = {span.pid for span in tracer.spans}
        assert os.getpid() in pids  # the batch span itself
        assert len(pids) > 1  # and at least one forked worker lane

    def test_request_spans_parent_under_the_batch_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many([request(seed) for seed in range(2)], workers=2, cache=False)
        batch = next(span for span in tracer.spans if span.name == "batch")
        requests = [span for span in tracer.spans if span.name == "request"]
        assert len(requests) == 2
        assert all(span.parent_id == batch.span_id for span in requests)

    def test_parallel_trace_matches_serial_trace_span_for_span(self):
        reqs = [request(seed) for seed in range(3)]
        serial, parallel = Tracer(), Tracer()
        with use_tracer(serial):
            compile_many(reqs, workers=1, cache=False)
        with use_tracer(parallel):
            compile_many(reqs, workers=2, cache=False)
        assert span_shape(serial) == span_shape(parallel)

    def test_batch_span_reports_cache_partition(self):
        cache = CompileCache()
        api_compile(request(0), cache=cache)  # pre-warm one entry
        reqs = [request(0), request(0), request(1)]
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many(reqs, workers=1, cache=cache)
        batch = next(span for span in tracer.spans if span.name == "batch")
        assert batch.attributes["cache_hits"] == 2
        assert batch.attributes["cache_misses"] == 1


class TestCacheEvents:
    def test_memory_hits_and_misses_are_counted(self):
        cache = CompileCache()
        tracer = Tracer()
        with use_tracer(tracer):
            api_compile(request(), cache=cache)
            api_compile(request(), cache=cache)
        assert tracer.counters["cache.misses"] == 1
        assert tracer.counters["cache.stores"] == 1
        assert tracer.counters["cache.memory_hits"] == 1

    def test_disk_hits_are_counted(self, tmp_path):
        warm = CompileCache(directory=tmp_path)
        tracer = Tracer()
        with use_tracer(tracer):
            api_compile(request(), cache=warm)
        cold = CompileCache(directory=tmp_path)
        with use_tracer(tracer):
            api_compile(request(), cache=cold)
        assert tracer.counters["cache.disk_hits"] == 1

    def test_untraced_cache_calls_record_nothing(self):
        cache = CompileCache()
        api_compile(request(), cache=cache)
        api_compile(request(), cache=cache)
        # stats still work without a tracer installed
        assert cache.stats["memory_hits"] == 1


class TestFaultTolerantPaths:
    def test_collect_mode_keeps_one_trace_id(self):
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many(
                [request(seed) for seed in range(2)],
                workers=1,
                cache=False,
                on_error="collect",
            )
        assert {span.trace_id for span in tracer.spans} == {tracer.trace_id}
        assert sum(1 for s in tracer.spans if s.name == "request") == 2

    def test_isolated_worker_spans_stitch_home(self):
        tracer = Tracer()
        with use_tracer(tracer):
            compile_many(
                [request(seed) for seed in range(2)],
                workers=2,
                cache=False,
                timeout=60.0,  # forces one forked child per attempt
            )
        request_spans = [s for s in tracer.spans if s.name == "request"]
        assert len(request_spans) == 2
        assert {span.trace_id for span in tracer.spans} == {tracer.trace_id}

    def test_failed_attempt_spans_carry_the_error(self):
        tracer = Tracer()
        with use_tracer(tracer):
            batch = compile_many(
                [CompileRequest(generate="qft:7", backend=GRID, router="nope", seed=0)],
                workers=1,
                cache=False,
                on_error="collect",
            )
        assert batch.errors
        failed = [s for s in tracer.spans if s.name == "request"]
        assert failed and "error" in failed[0].attributes
