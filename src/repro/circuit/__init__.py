"""Quantum circuit intermediate representation.

This subpackage provides the circuit substrate the mapper operates on:

* :class:`~repro.circuit.gate.Gate` -- a single quantum operation,
* :class:`~repro.circuit.circuit.QuantumCircuit` -- an ordered gate list over
  logical qubits with convenience builders,
* :class:`~repro.circuit.dag.CircuitDAG` -- the gate dependence DAG with
  successor, descendant and level queries,
* :mod:`~repro.circuit.metrics` -- gate-count, swap-count and depth-overhead
  metrics,
* :mod:`~repro.circuit.validation` -- routed-circuit correctness checking
  (connectivity and dependence preservation).
"""

from repro.circuit.gate import Gate
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.metrics import (
    two_qubit_gate_count,
    swap_count,
    total_operations,
)
from repro.circuit.validation import (
    RoutingValidationError,
    check_connectivity,
    check_dependence_preservation,
    verify_routing,
)

__all__ = [
    "Gate",
    "QuantumCircuit",
    "CircuitDAG",
    "two_qubit_gate_count",
    "swap_count",
    "total_operations",
    "RoutingValidationError",
    "check_connectivity",
    "check_dependence_preservation",
    "verify_routing",
]
