"""Circuit quality metrics used throughout the evaluation.

The two headline metrics of the paper are the circuit depth
(:meth:`QuantumCircuit.depth`) and the number of inserted SWAP gates; this
module also exposes the helper counts used by the benchmark tables (two-qubit
gate count, total quantum operations, depth overhead and depth factor).
"""

from __future__ import annotations

from repro.circuit.circuit import QuantumCircuit


def two_qubit_gate_count(circuit: QuantumCircuit) -> int:
    """Number of gates acting on exactly two qubits."""
    return sum(1 for gate in circuit if gate.is_two_qubit)


def swap_count(circuit: QuantumCircuit) -> int:
    """Number of SWAP gates in the circuit."""
    return sum(1 for gate in circuit if gate.is_swap)


def total_operations(circuit: QuantumCircuit) -> int:
    """Total number of quantum operations (QOPs), excluding barriers."""
    return sum(1 for gate in circuit if not gate.is_barrier)


def depth_overhead(original: QuantumCircuit, routed: QuantumCircuit) -> int:
    """Depth increase caused by routing (routed depth minus original depth)."""
    return routed.depth() - original.depth()


def depth_factor(routed_depth: int, reference_depth: int) -> float:
    """Post-mapping depth relative to a reference depth (lower is better).

    The paper's Table II reports this with the QUEKO *optimal* depth as the
    reference.
    """
    if reference_depth <= 0:
        raise ValueError("reference depth must be positive")
    return routed_depth / reference_depth
