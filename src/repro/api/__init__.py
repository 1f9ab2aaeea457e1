"""``repro.api`` -- the unified compile pipeline (the one public entry point).

Every consumer (CLI, benchmark harness, analysis drivers, tests) maps
circuits through this package instead of hand-wiring placement + router
construction + routing:

    from repro.api import CompileRequest, compile, compile_many

    request = CompileRequest(generate="qft:24", backend="sherbrooke",
                             router="sabre", seed=0, validation="full")
    result = compile(request)
    print(result.swaps_added, result.routed_depth, result.pass_timings)

    batch = compile_many([request.with_seed(s) for s in range(8)], workers=4)
    print(batch.summary())

Contents:

* :class:`~repro.api.request.CompileRequest` / ``CompileResult`` /
  ``BatchResult`` -- the typed request/result surface,
* :func:`~repro.api.pipeline.compile` -- the explicit pass pipeline
  (load -> place -> route -> validate -> metrics) with per-pass timing,
* :func:`~repro.api.batch.compile_many` -- the deterministic multi-process
  batch driver (cache-aware: hits are partitioned out before fan-out) with
  fault tolerance: ``on_error="collect"`` records per-request failures as
  structured :class:`~repro.api.result.CompileError` values instead of
  aborting siblings, ``timeout=``/``retries=``/``backoff=`` bound and retry
  attempts on a deterministic seeded schedule
  (:func:`~repro.api.batch.deterministic_backoff`), and crashed or hung
  worker processes are reaped and retried,
* :mod:`~repro.api.registry` -- the declarative ``@register_router``
  registry all routers announce themselves to,
* :mod:`~repro.api.cache` -- the content-addressed compile cache
  (:func:`request_fingerprint` + :class:`CompileCache`, in-memory LRU by
  default; the opt-in disk tier is one bounded SQLite database with LRU
  eviction and a ``readonly=`` fleet mode) backed by the
  :mod:`~repro.api.serialize` payload round-trip.

Routed outputs are bit-for-bit reproducible: one request, one circuit,
independent of worker count or scheduling.
"""

from repro.api.registry import (
    RegistryError,
    RouterSpec,
    UnknownRouterError,
    make_router,
    register_router,
    resolve_router,
    router_names,
    router_specs,
    unregister_router,
)
from repro.api.request import CompileRequest, sweep_requests
from repro.api.result import BatchResult, CompileError, CompileResult
from repro.api.pipeline import (
    PASS_ORDER,
    compile,
    compile_uncached,
    load_circuit,
    resolve_backend,
)
from repro.api.batch import (
    ON_ERROR_POLICIES,
    compile_many,
    compile_sweep,
    deterministic_backoff,
)
from repro.api.cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_BYTES_ENV,
    CACHE_MAX_ENTRIES_ENV,
    CACHE_SCHEMA_VERSION,
    CompileCache,
    default_cache,
    request_fingerprint,
    set_default_cache,
)
from repro.api.serialize import (
    PAYLOAD_VERSION,
    SerializationError,
    request_from_payload,
    request_to_payload,
    result_from_payload,
    result_to_payload,
)

__all__ = [
    "CompileRequest",
    "CompileResult",
    "BatchResult",
    "CompileError",
    "PASS_ORDER",
    "compile",
    "compile_uncached",
    "compile_many",
    "compile_sweep",
    "ON_ERROR_POLICIES",
    "deterministic_backoff",
    "CACHE_DIR_ENV",
    "CACHE_MAX_BYTES_ENV",
    "CACHE_MAX_ENTRIES_ENV",
    "CACHE_SCHEMA_VERSION",
    "CompileCache",
    "default_cache",
    "request_fingerprint",
    "set_default_cache",
    "PAYLOAD_VERSION",
    "SerializationError",
    "request_from_payload",
    "request_to_payload",
    "result_from_payload",
    "result_to_payload",
    "load_circuit",
    "resolve_backend",
    "sweep_requests",
    "RouterSpec",
    "RegistryError",
    "UnknownRouterError",
    "register_router",
    "unregister_router",
    "resolve_router",
    "router_names",
    "router_specs",
    "make_router",
]
