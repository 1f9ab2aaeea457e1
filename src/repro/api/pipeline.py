"""The compile pipeline: load -> place -> route -> validate -> metrics.

:func:`compile` is the one public entry point for mapping a circuit onto a
device.  It runs an explicit pass sequence over a
:class:`~repro.api.request.CompileRequest`, times every pass individually and
returns a :class:`~repro.api.result.CompileResult`.  All router construction
goes through the :mod:`repro.api.registry`, so a routed circuit is a pure
function of the request: same request, same bits.

Pass responsibilities:

* ``load``      materialise the circuit (in-memory / QASM file / generator
  spec), reject gates on more than two qubits, resolve the backend
  coupling graph and reject a circuit wider than it,
* ``place``     build the initial layout with the requested strategy
  (:mod:`repro.core.placement`, or forward/backward passes of the request's
  own router for ``bidirectional``),
* ``route``     run the router, which is instantiated from the registry
  before ``place`` -- this pass's timing is the mapping-time trajectory
  number,
* ``validate``  optional connectivity / full semantic check of the routed
  circuit,
* ``metrics``   derive the flat quality-metric record the evaluation tables
  consume.

Because a routed circuit is a pure function of the request, :func:`compile`
consults the content-addressed cache (:mod:`repro.api.cache`) before running
the pass sequence: by default an in-process LRU keyed on the request
fingerprint (disk persistence is opt-in via a cache with a ``directory`` or
the ``REPRO_CACHE_DIR`` environment variable), bypassable per call with
``cache=False``.  A hit rehydrates the stored payload -- bit-for-bit
identical to a fresh run -- with the original pass timings, so cached
results never distort a timing trajectory with near-zero replay times.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from repro.api.registry import resolve_router
from repro.api.request import CompileRequest, parse_generate_spec
from repro.api.result import CompileError, CompileResult
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.metrics import total_operations, two_qubit_gate_count
from repro.circuit.validation import check_connectivity, verify_routing
from repro.hardware.coupling import CouplingGraph
from repro.obs.trace import current_tracer

#: Pass execution order (also the key order of ``CompileResult.pass_timings``).
PASS_ORDER = ("load", "place", "route", "validate", "metrics")


def _annotate_phase(exc: BaseException, phase: str) -> None:
    """Stamp the failing pipeline phase onto an escaping exception.

    :meth:`CompileError.from_exception` reads the annotation when building
    the structured failure record, so a collected batch failure names the
    pass that died without the pipeline having to wrap every exception type.
    """
    if isinstance(exc, CompileError):
        exc.phase = phase
    elif getattr(exc, "_compile_phase", None) is None:
        try:
            exc._compile_phase = phase
        except Exception:
            pass  # extension or slotted exception types just skip the stamp


def load_circuit(
    circuit: QuantumCircuit | None = None,
    qasm: str | Path | None = None,
    generate: str | None = None,
) -> QuantumCircuit:
    """Materialise a circuit from one of the three request sources.

    Raises :class:`CompileError` with a one-line message on unreadable files,
    invalid QASM or unknown generator specs.
    """
    from repro.api.request import check_one_source

    try:
        check_one_source(circuit, qasm, generate)
    except ValueError as exc:
        raise CompileError(str(exc)) from exc
    if circuit is not None:
        return circuit
    if qasm is not None:
        from repro.qasm.loader import QasmSyntaxError, circuit_from_qasm

        path = Path(qasm)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CompileError(f"cannot read QASM file {path}: {exc}") from exc
        try:
            loaded = circuit_from_qasm(data.decode(), name=path.stem)
        except QasmSyntaxError as exc:
            raise CompileError(f"invalid QASM in {path}: {exc}") from exc
        # The cache keys a result on the bytes parsed here, not on the file
        # as it read when the request was fingerprinted (see CompileCache.store).
        loaded._repro_source_digest = hashlib.sha256(data).hexdigest()
        return loaded
    from repro.benchgen.qasmbench import qasmbench_circuit

    try:
        return qasmbench_circuit(*parse_generate_spec(generate))
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        raise CompileError(f"cannot generate {generate!r}: {message}") from exc


def _check_routable(circuit: QuantumCircuit) -> None:
    """Reject gates on more than two qubits, which no router can place."""
    for position, gate in enumerate(circuit):
        if len(gate.qubits) > 2 and not gate.is_barrier:
            raise CompileError(
                f"gate #{position} ({gate!r}) acts on more than two qubits; "
                "decompose before routing"
            )


def resolve_backend(backend: str | CouplingGraph) -> CouplingGraph:
    """Resolve a backend name to its coupling graph (graphs pass through)."""
    if isinstance(backend, CouplingGraph):
        return backend
    from repro.hardware.backends import backend_by_name

    try:
        return backend_by_name(str(backend))
    except KeyError as exc:
        raise CompileError(exc.args[0] if exc.args else str(exc)) from exc


def compile(  # noqa: A001 - deliberate name
    request: CompileRequest,
    cache: "CompileCache | bool | None" = True,
) -> CompileResult:
    """Run the full pass pipeline for one request (cache-aware).

    ``cache`` is ``True`` (the process default in-memory cache), ``False`` /
    ``None`` (always recompute) or an explicit
    :class:`~repro.api.cache.CompileCache`.
    """
    from repro.api.cache import request_fingerprint, resolve_cache

    cache_store = resolve_cache(cache)
    if cache_store is None:
        return compile_uncached(request)
    fingerprint = request_fingerprint(request)
    hit = cache_store.lookup(fingerprint, request)
    if hit is not None:
        return hit
    result = compile_uncached(request)
    cache_store.store(fingerprint, result)
    return result


def compile_uncached(request: CompileRequest) -> CompileResult:
    """Run the full pass pipeline for one request, bypassing every cache.

    Any escaping exception is annotated with the failing phase (``request``,
    ``load``, ``place``, ``route``, ``validate`` or ``metrics``) so the
    batch driver's structured failure records name the pass that died.
    """
    phase = "request"
    try:
        try:
            request.check()
        except ValueError as exc:
            raise CompileError(str(exc)) from exc
        timings: dict[str, float] = {}

        # Tracing is observational only: spans are recorded *around* the
        # existing pass timing (never replacing it), and the disabled path
        # pays one thread-local read plus no-op context managers.
        tracer = current_tracer()
        with tracer.span("compile", seed=request.seed) as compile_span:
            phase = "load"
            start = time.perf_counter()
            with tracer.span("load"):
                circuit = load_circuit(request.circuit, request.qasm, request.generate)
                _check_routable(circuit)
                coupling = resolve_backend(request.backend)
                if circuit.num_qubits > coupling.num_qubits:
                    raise CompileError(
                        f"circuit has {circuit.num_qubits} qubits but backend "
                        f"{coupling.name} has only {coupling.num_qubits} physical qubits"
                    )
            timings["load"] = time.perf_counter() - start

            phase = "route"
            spec = resolve_router(request.router)
            router = spec.make(coupling, seed=request.seed, config=request.router_config)

            phase = "place"
            start = time.perf_counter()
            with tracer.span("place", placement=request.placement):
                layout = _place(request, circuit, coupling, router)
            timings["place"] = time.perf_counter() - start

            phase = "route"
            start = time.perf_counter()
            with tracer.span("route", router=spec.name) as route_span:
                routing = router.run(circuit, layout)
                if tracer.enabled:
                    route_span.update(
                        {
                            "swaps": routing.swaps_added,
                            "cost_evaluations": routing.cost_evaluations,
                        }
                    )
            timings["route"] = time.perf_counter() - start

            phase = "validate"
            start = time.perf_counter()
            with tracer.span("validate", mode=request.validation):
                if request.validation == "connectivity":
                    check_connectivity(routing.routed_circuit, coupling.edges())
                elif request.validation == "full":
                    verify_routing(
                        circuit,
                        routing.routed_circuit,
                        coupling.edges(),
                        routing.initial_layout,
                    )
            timings["validate"] = time.perf_counter() - start

            phase = "metrics"
            start = time.perf_counter()
            with tracer.span("metrics"):
                metrics = _metrics(request, circuit, coupling, spec.name, routing, timings)
            timings["metrics"] = time.perf_counter() - start

            if tracer.enabled:
                route_span.set("routed_depth", metrics["routed_depth"])
                compile_span.update(
                    {
                        "router": spec.name,
                        "backend": coupling.name,
                        "circuit": request.label or circuit.name,
                        "num_qubits": circuit.num_qubits,
                        "num_gates": len(circuit),
                    }
                )

        return CompileResult(
            request=request,
            routing=routing,
            router=spec.name,
            backend_name=coupling.name,
            circuit_name=request.label or circuit.name,
            pass_timings=timings,
            metrics=metrics,
            source_digest=(
                None if request.qasm is None else getattr(circuit, "_repro_source_digest", None)
            ),
        )
    except Exception as exc:
        _annotate_phase(exc, phase)
        raise


def _place(
    request: CompileRequest, circuit: QuantumCircuit, coupling: CouplingGraph, router
):
    from repro.core.placement import initial_layout

    try:
        if request.placement == "bidirectional":
            return router.bidirectional_layout(
                circuit, request.placement_options.get("passes", 1)
            )
        return initial_layout(circuit, coupling, request.placement)
    except ValueError as exc:
        raise CompileError(f"placement failed: {exc}") from exc


def _metrics(
    request: CompileRequest,
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    router_name: str,
    routing,
    timings: dict[str, float],
) -> dict:
    routed_depth = routing.routed_depth  # one depth pass over the routed circuit
    return {
        "circuit": request.label or circuit.name,
        "backend": coupling.name,
        "router": router_name,
        "seed": request.seed,
        "num_qubits": circuit.num_qubits,
        "num_gates": len(circuit),
        "qops": total_operations(circuit),
        "two_qubit_gates": two_qubit_gate_count(circuit),
        "initial_depth": routing.original_depth,
        "swaps": routing.swaps_added,
        "routed_depth": routed_depth,
        "depth_overhead": routed_depth - routing.original_depth,
        "cost_evaluations": routing.cost_evaluations,
        "runtime_seconds": round(timings["route"], 6),
    }
