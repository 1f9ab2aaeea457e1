"""Routed-circuit validation.

A routed circuit is correct when (a) every multi-qubit gate acts on
physically adjacent qubits of the target device and (b) removing the inserted
SWAPs and undoing the qubit movement they cause recovers a circuit that is
equivalent to the original one -- i.e. for every logical qubit, the sequence
of gates touching that qubit is unchanged (gates on disjoint qubits are free
to commute).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate


class RoutingValidationError(AssertionError):
    """Raised when a routed circuit violates connectivity or semantics."""


def _normalize_layout(
    layout: Mapping[int, int] | Sequence[int], num_logical: int
) -> dict[int, int]:
    if isinstance(layout, Mapping):
        mapping = {int(k): int(v) for k, v in layout.items()}
    else:
        mapping = {logical: int(physical) for logical, physical in enumerate(layout)}
    missing = [q for q in range(num_logical) if q not in mapping]
    if missing:
        raise ValueError(f"initial layout does not place logical qubits {missing}")
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise ValueError("initial layout maps two logical qubits to the same physical qubit")
    return mapping


def check_connectivity(
    routed: QuantumCircuit, edges: Iterable[tuple[int, int]]
) -> None:
    """Verify every two-qubit gate of ``routed`` acts on coupled physical qubits."""
    adjacency: set[frozenset[int]] = {frozenset(edge) for edge in edges}
    for position, gate in enumerate(routed):
        if gate.num_qubits < 2 or gate.is_barrier:
            continue
        if gate.num_qubits > 2:
            raise RoutingValidationError(
                f"gate #{position} ({gate!r}) acts on more than two qubits; "
                "decompose before routing"
            )
        if frozenset(gate.qubits) not in adjacency:
            raise RoutingValidationError(
                f"gate #{position} ({gate!r}) acts on non-adjacent physical qubits"
            )


def recovered_logical_circuit(
    routed: QuantumCircuit,
    initial_layout: Mapping[int, int] | Sequence[int],
    num_logical: int,
) -> QuantumCircuit:
    """Undo routing: strip SWAPs and translate physical operands back to logical.

    The physical-to-logical assignment starts as the inverse of
    ``initial_layout`` and is updated at every SWAP gate; non-SWAP gates are
    re-expressed over the logical qubits they act on at that point in time.
    """
    layout = _normalize_layout(initial_layout, num_logical)
    phys_to_logical: dict[int, int] = {p: l for l, p in layout.items()}
    recovered = QuantumCircuit(num_logical, name=f"{routed.name}-recovered")
    for gate in routed:
        if gate.is_barrier:
            continue
        if gate.is_swap:
            p1, p2 = gate.qubits
            phys_to_logical[p1], phys_to_logical[p2] = (
                phys_to_logical.get(p2),
                phys_to_logical.get(p1),
            )
            continue
        logical_qubits = []
        for phys in gate.qubits:
            logical = phys_to_logical.get(phys)
            if logical is None:
                raise RoutingValidationError(
                    f"gate {gate!r} uses physical qubit {phys} that holds no logical state"
                )
            logical_qubits.append(logical)
        recovered.append(Gate(gate.name, tuple(logical_qubits), gate.params, gate.label))
    return recovered


def _per_qubit_traces(circuit: QuantumCircuit) -> dict[int, list[tuple]]:
    """The gates acting on each qubit state, in order, SWAPs dropped.

    State ``q`` starts on qubit ``q`` and a SWAP exchanges two qubits'
    states, as :func:`recovered_logical_circuit` relabels a routed circuit.
    """
    traces: dict[int, list[tuple]] = {}
    state: list[int] | None = None  # qubit -> state it holds, once a SWAP moved one
    for gate in circuit:
        if gate.is_barrier:
            continue
        qubits = gate.qubits
        if gate.is_swap:
            if state is None:
                state = list(range(circuit.num_qubits))
            a, b = qubits
            state[a], state[b] = state[b], state[a]
            continue
        if state is not None:
            qubits = tuple([state[qubit] for qubit in qubits])
        signature = (gate.name, qubits, gate.params)
        for qubit in qubits:
            traces.setdefault(qubit, []).append(signature)
    return traces


def check_dependence_preservation(
    original: QuantumCircuit,
    routed: QuantumCircuit,
    initial_layout: Mapping[int, int] | Sequence[int],
) -> None:
    """Verify the routed circuit performs the same computation as the original.

    The criterion is per-qubit trace equality of the SWAP-stripped,
    logically-relabelled routed circuit against the original circuit: gates
    acting on disjoint qubits may be reordered freely, but the order of gates
    sharing a qubit (i.e. every dependence) must be preserved.  SWAPs of the
    original relabel it the same way, so traces follow qubit states.
    """
    recovered = recovered_logical_circuit(routed, initial_layout, original.num_qubits)
    original_traces = _per_qubit_traces(original)
    recovered_traces = _per_qubit_traces(recovered)
    for qubit in range(original.num_qubits):
        expected = original_traces.get(qubit, [])
        actual = recovered_traces.get(qubit, [])
        if expected != actual:
            raise RoutingValidationError(
                f"gate trace mismatch on logical qubit {qubit}: "
                f"expected {len(expected)} gates, recovered {len(actual)} "
                f"(first difference: {_first_difference(expected, actual)})"
            )


def _first_difference(expected: list, actual: list):
    for index, (a, b) in enumerate(zip(expected, actual)):
        if a != b:
            return index, a, b
    return min(len(expected), len(actual)), None, None


def verify_routing(
    original: QuantumCircuit,
    routed: QuantumCircuit,
    edges: Iterable[tuple[int, int]],
    initial_layout: Mapping[int, int] | Sequence[int],
) -> None:
    """Full routed-circuit check: connectivity plus dependence preservation.

    Raises :class:`RoutingValidationError` when either check fails; returns
    None on success so it can be used directly as a test assertion.
    """
    check_connectivity(routed, edges)
    check_dependence_preservation(original, routed, initial_layout)
