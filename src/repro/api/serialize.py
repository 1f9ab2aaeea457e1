"""Serialization of compile results to JSON-safe payloads and back.

The content-addressed cache (:mod:`repro.api.cache`) persists
:class:`~repro.api.result.CompileResult` objects across processes, so the
routed circuit and its bookkeeping need a faithful wire format.  Circuits
travel as a columnar **gate table** (:func:`circuit_to_payload`): the
distinct ``[name, n_qubits, n_params]`` gate kinds, one space-separated
``ops`` string holding each gate's kind code followed by its qubits, one
space-separated ``params`` string of ``repr``-exact floats in gate order, and
``[gate_index, label]`` pairs for labelled gates only.  Decoding is one
pass over the ``split()`` columns: each *distinct* gate goes once through
the one checked :class:`~repro.circuit.gate.Gate` constructor and the
circuit's qubit-range check, and its repeats share that immutable object
-- no QASM lexer or parser.  A payload round-trip
reproduces the routed gate sequence bit for bit, labels, operand-less
barriers and non-finite parameters included (the invariant the golden
harness enforces; ``tests/data/payload-v2.json`` pins the layout; see
``tests/api/test_serialize.py``).

A memory-tier cache hit reads its result with ``lazy=True``: the routed
circuit decodes the stored table on first use and, unread, encodes back to a
copy of it, so a served hit neither decodes nor re-encodes a gate table.

The request itself is *not* serialized: payloads are only ever addressed by
the request fingerprint (:func:`repro.api.cache.request_fingerprint`), and a
cache hit re-attaches the caller's live request object.  That keeps device
coupling graphs and in-memory circuits out of the payload entirely.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.api.request import CompileRequest, check_one_source
from repro.api.result import CompileResult
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.hardware.coupling import CouplingGraph
from repro.routing.result import RoutingResult

#: Version stamp of the payload layout.  Bump on any shape change; the cache
#: treats entries with a different stamp as misses instead of deserializing.
PAYLOAD_VERSION = 2


class SerializationError(ValueError):
    """Raised when a payload cannot be rebuilt into a result."""


def circuit_to_payload(circuit: QuantumCircuit) -> dict:
    """Encode a circuit as a JSON-safe columnar gate table.

    The ``ops`` token of each distinct parameter-free gate is written once.
    A stored circuit never read nor renamed returns a copy of its table.
    """
    if isinstance(circuit, _StoredCircuit) and "_gates" not in vars(circuit):
        table = circuit._table
        if circuit.name == table["name"]:  # new lists: an edit must not reach the cache
            kinds, labels = table["kinds"], table["labels"]
            return dict(table, kinds=[*map(list, kinds)], labels=[*map(list, labels)])
    codes: dict[tuple[str, int, int], int] = {}
    tokens: dict[tuple[str, tuple[int, ...]], str] = {}
    ops: list[str] = []
    params: list[str] = []
    labels: list[list] = []
    for index, gate in enumerate(circuit):
        name, qubits, values = gate.name, gate.qubits, gate.params
        token = None if values else tokens.get((name, qubits))
        if token is None:
            code = codes.setdefault((name, len(qubits), len(values)), len(codes))
            token = " ".join([str(code), *map(str, qubits)])
            if values:
                params.extend(map(repr, values))
            else:
                tokens[name, qubits] = token
        ops.append(token)
        if gate.label:
            labels.append([index, gate.label])
    return {
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "kinds": [list(kind) for kind in codes],
        "ops": " ".join(ops),
        "params": " ".join(params),
        "labels": labels,
    }


def circuit_from_payload(payload: dict) -> QuantumCircuit:
    """Rebuild a circuit from :func:`circuit_to_payload` output.

    One pass over the ``int`` ``ops`` column and the split ``params``
    column.  A gate is keyed by its kind code, operands, parameter *words*
    (``-0.0 == 0.0`` and ``nan != nan`` as floats) and label.  A key's first
    position builds the gate through :class:`Gate`, which rejects repeated
    operands, and :meth:`QuantumCircuit.check_qubits`; its later positions
    hold that same object.  Any malformed column raises
    :class:`SerializationError`.
    """
    try:
        ops, params = payload["ops"], payload["params"]
        if not isinstance(ops, str) or not isinstance(params, str):
            raise SerializationError("gate-table columns 'ops' and 'params' must be strings")
        kinds = [tuple(kind) for kind in payload["kinds"]]
        for name, width, arity in kinds:
            if not (
                isinstance(name, str)
                and type(width) is int
                and type(arity) is int
                and min(width, arity) >= 0
            ):
                raise SerializationError(f"malformed gate kind {[name, width, arity]!r}")
        labels = {int(index): str(label) for index, label in payload["labels"]}
        label_of = labels.get
        circuit = QuantumCircuit(int(payload["num_qubits"]), name=str(payload["name"]))
        check = circuit.check_qubits
        numbers = tuple(map(int, ops.split()))
        values = tuple(params.split())
        end, available, known = len(numbers), len(values), len(kinds)
        gates: list[Gate] = []
        built: dict[tuple, Gate] = {}
        position = cursor = 0
        while position < end:
            code = numbers[position]
            if not 0 <= code < known:
                raise SerializationError(f"unknown gate kind code {code}")
            name, width, arity = kinds[code]
            stop = position + 1 + width
            if stop > end:
                raise SerializationError("ops column is truncated")
            key = numbers[position:stop]
            gate_params = ()
            if arity:
                gate_params = values[cursor : cursor + arity]
                cursor += arity
                if cursor > available:
                    raise SerializationError(
                        "params column is shorter than its gate kinds require"
                    )
                key += gate_params
            label = label_of(len(gates), "")
            if label:
                key += (label,)
            gate = built.get(key)
            if gate is None:
                gate = built[key] = check(Gate(name, key[1 : 1 + width], gate_params, label))
            gates.append(gate)
            position = stop
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(f"invalid circuit payload: {exc}") from exc
    if cursor != available:
        raise SerializationError("params column is longer than its gate kinds require")
    if any(not 0 <= index < len(gates) for index in labels):
        raise SerializationError("a label names a gate the table does not hold")
    circuit._extend_checked(gates)
    return circuit


class _StoredCircuit(QuantumCircuit):
    """A circuit read from a stored gate table, decoded on its first use.

    Every method reads ``self._gates``; a malformed table raises there.
    """

    def __init__(self, table: dict):
        try:  # circuit_from_payload's checks on the header
            header = QuantumCircuit(int(table["num_qubits"]), name=str(table["name"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SerializationError(f"invalid circuit payload: {exc}") from exc
        self._table, self._num_qubits, self.name = table, header.num_qubits, header.name

    @functools.cached_property
    def _gates(self) -> list[Gate]:
        return circuit_from_payload(self._table)._gates


def _layout_to_payload(layout: dict) -> dict:
    # JSON object keys are strings; store them as such and restore ints on read.
    return {str(logical): int(physical) for logical, physical in layout.items()}


def _layout_from_payload(payload: dict) -> dict[int, int]:
    return {int(logical): int(physical) for logical, physical in payload.items()}


def routing_to_payload(routing: RoutingResult) -> dict:
    """Encode a routing result (routed circuit + layouts + bookkeeping)."""
    return {
        "routed_circuit": circuit_to_payload(routing.routed_circuit),
        "initial_layout": _layout_to_payload(routing.initial_layout),
        "final_layout": _layout_to_payload(routing.final_layout),
        "original_depth": routing.original_depth,
        "mapper_name": routing.mapper_name,
        "runtime_seconds": routing.runtime_seconds,
        "cost_evaluations": routing.cost_evaluations,
        "metadata": dict(routing.metadata),
    }


def routing_from_payload(payload: dict, *, lazy: bool = False) -> RoutingResult:
    """Rebuild a routing result; ``lazy`` decodes the routed circuit on first use."""
    read_circuit = _StoredCircuit if lazy else circuit_from_payload
    try:
        return RoutingResult(
            routed_circuit=read_circuit(payload["routed_circuit"]),
            initial_layout=_layout_from_payload(payload["initial_layout"]),
            final_layout=_layout_from_payload(payload["final_layout"]),
            original_depth=int(payload["original_depth"]),
            mapper_name=str(payload["mapper_name"]),
            runtime_seconds=float(payload["runtime_seconds"]),
            cost_evaluations=int(payload["cost_evaluations"]),
            metadata=dict(payload["metadata"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(f"invalid routing payload: {exc}") from exc


#: Keys a serialized request payload may carry (anything else is rejected:
#: a typo'd option silently dropped on the wire would compile the *wrong*
#: request under the *right* fingerprint).
REQUEST_PAYLOAD_KEYS = frozenset(
    {
        "version",
        "generate",
        "qasm",
        "circuit",
        "backend",
        "router",
        "seed",
        "placement",
        "placement_options",
        "router_config",
        "validation",
        "label",
    }
)


def _plain_json(value, field: str):
    """Require ``value`` to survive a JSON round-trip unchanged-in-meaning."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"request field {field!r} is not JSON-serializable: {exc}"
        ) from exc


def request_to_payload(request: CompileRequest) -> dict:
    """Encode a compile request as a JSON-safe wire payload.

    The wire format covers everything a remote caller can express: a circuit
    source (``generate`` spec, server-local ``qasm`` path, or an in-memory
    circuit shipped as a gate table), a backend *name*, router, seed, placement
    and validation.  Explicit :class:`CouplingGraph` backends and non-JSON
    config objects are deliberately not wire-serializable -- they raise
    :class:`SerializationError` instead of being silently dropped.
    """
    try:
        check_one_source(request.circuit, request.qasm, request.generate)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    if isinstance(request.backend, CouplingGraph):
        raise SerializationError(
            "explicit CouplingGraph backends are not wire-serializable; "
            "pass a backend name"
        )
    payload: dict = {"version": PAYLOAD_VERSION}
    if request.generate is not None:
        payload["generate"] = str(request.generate)
    elif request.qasm is not None:
        payload["qasm"] = str(request.qasm)
    else:
        payload["circuit"] = circuit_to_payload(request.circuit)
    payload.update(
        backend=str(request.backend),
        router=str(request.router),
        seed=request.seed,
        placement=str(request.placement),
        placement_options=_plain_json(request.placement_options, "placement_options"),
        router_config=_plain_json(request.router_config, "router_config"),
        validation=str(request.validation),
        label=request.label if request.label is None else str(request.label),
    )
    return payload


def request_from_payload(payload: dict) -> CompileRequest:
    """Rebuild a compile request from :func:`request_to_payload` output.

    Unknown keys are rejected (never silently ignored) and a missing
    ``version`` is treated as current, so hand-written client payloads stay
    ergonomic while drifted ones fail loudly.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"request payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - REQUEST_PAYLOAD_KEYS)
    if unknown:
        raise SerializationError(f"unknown request payload keys: {', '.join(unknown)}")
    version = payload.get("version", PAYLOAD_VERSION)
    if version != PAYLOAD_VERSION:
        raise SerializationError(
            f"request payload version {version!r} != supported {PAYLOAD_VERSION}"
        )
    sources = [key for key in ("generate", "qasm", "circuit") if key in payload]
    if len(sources) != 1:
        raise SerializationError(
            "request payload must carry exactly one of generate=, qasm= or circuit="
        )
    if payload.get("router_config") is not None:
        raise SerializationError(
            "router_config must be null on the wire: no router takes a JSON config"
        )
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SerializationError(f"seed must be an integer, got {seed!r}")
    circuit = None
    if "circuit" in payload:
        circuit = circuit_from_payload(payload["circuit"])
    try:
        return CompileRequest(
            circuit=circuit,
            qasm=Path(payload["qasm"]) if "qasm" in payload else None,
            generate=payload.get("generate"),
            backend=str(payload.get("backend", "sherbrooke")),
            router=str(payload.get("router", "qlosure")),
            seed=seed,
            placement=str(payload.get("placement", "identity")),
            placement_options=dict(payload.get("placement_options") or {}),
            validation=str(payload.get("validation", "none")),
            label=payload.get("label"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(f"invalid request payload: {exc}") from exc


def result_to_payload(result: CompileResult) -> dict:
    """Encode a compile result (minus its request) as a JSON-safe payload."""
    return {
        "version": PAYLOAD_VERSION,
        "router": result.router,
        "backend_name": result.backend_name,
        "circuit_name": result.circuit_name,
        "pass_timings": dict(result.pass_timings),
        "metrics": dict(result.metrics),
        "routing": routing_to_payload(result.routing),
    }


def result_from_payload(payload: dict, request, *, lazy: bool = False) -> CompileResult:
    """Rebuild a compile result, re-attaching the caller's live ``request``.

    ``lazy`` is :func:`routing_from_payload`'s.
    """
    try:
        version = payload["version"]
        if version != PAYLOAD_VERSION:
            raise SerializationError(
                f"payload version {version!r} != supported {PAYLOAD_VERSION}"
            )
        return CompileResult(
            request=request,
            routing=routing_from_payload(payload["routing"], lazy=lazy),
            router=str(payload["router"]),
            backend_name=str(payload["backend_name"]),
            circuit_name=str(payload["circuit_name"]),
            pass_timings={k: float(v) for k, v in payload["pass_timings"].items()},
            metrics=dict(payload["metrics"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(f"invalid result payload: {exc}") from exc
