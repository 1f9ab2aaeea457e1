"""Tests for routed-circuit validation."""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.validation import (
    RoutingValidationError,
    check_connectivity,
    check_dependence_preservation,
    recovered_logical_circuit,
    verify_routing,
)


LINE3_EDGES = [(0, 1), (1, 2)]


def original_far_cnot() -> QuantumCircuit:
    """A CNOT between the two ends of a 3-qubit line (needs one SWAP)."""
    circuit = QuantumCircuit(3)
    circuit.cx(0, 2)
    return circuit


class TestConnectivity:
    def test_adjacent_gate_passes(self):
        routed = QuantumCircuit(3)
        routed.cx(0, 1)
        check_connectivity(routed, LINE3_EDGES)

    def test_non_adjacent_gate_fails(self):
        routed = QuantumCircuit(3)
        routed.cx(0, 2)
        with pytest.raises(RoutingValidationError):
            check_connectivity(routed, LINE3_EDGES)

    def test_single_qubit_gates_ignored(self):
        routed = QuantumCircuit(3)
        routed.h(2)
        check_connectivity(routed, LINE3_EDGES)

    def test_three_qubit_gate_rejected(self):
        routed = QuantumCircuit(3)
        routed.add_gate("ccx", 0, 1, 2)
        with pytest.raises(RoutingValidationError):
            check_connectivity(routed, LINE3_EDGES)


class TestRecovery:
    def test_swap_then_cnot_recovers_original(self):
        routed = QuantumCircuit(3)
        routed.swap(1, 2)  # logical 2 moves onto physical 1
        routed.cx(0, 1)
        recovered = recovered_logical_circuit(routed, {0: 0, 1: 1, 2: 2}, 3)
        assert [g.name for g in recovered] == ["cx"]
        assert recovered.gates[0].qubits == (0, 2)

    def test_initial_layout_as_list(self):
        routed = QuantumCircuit(3)
        routed.cx(2, 1)
        recovered = recovered_logical_circuit(routed, [2, 1, 0], 3)
        assert recovered.gates[0].qubits == (0, 1)

    def test_duplicate_layout_rejected(self):
        with pytest.raises(ValueError):
            recovered_logical_circuit(QuantumCircuit(2), {0: 0, 1: 0}, 2)

    def test_missing_logical_qubit_rejected(self):
        with pytest.raises(ValueError):
            recovered_logical_circuit(QuantumCircuit(2), {0: 0}, 2)


class TestVerifyRouting:
    def test_correct_routing_passes(self):
        original = original_far_cnot()
        routed = QuantumCircuit(3)
        routed.swap(1, 2)
        routed.cx(0, 1)
        verify_routing(original, routed, LINE3_EDGES, {0: 0, 1: 1, 2: 2})

    def test_missing_gate_detected(self):
        original = original_far_cnot()
        routed = QuantumCircuit(3)
        routed.swap(1, 2)
        with pytest.raises(RoutingValidationError):
            verify_routing(original, routed, LINE3_EDGES, {0: 0, 1: 1, 2: 2})

    def test_wrong_operand_detected(self):
        original = original_far_cnot()
        routed = QuantumCircuit(3)
        routed.swap(1, 2)
        routed.cx(1, 0)  # control/target flipped relative to the original
        with pytest.raises(RoutingValidationError):
            verify_routing(original, routed, LINE3_EDGES, {0: 0, 1: 1, 2: 2})

    def test_reordering_independent_gates_is_allowed(self):
        original = QuantumCircuit(4)
        original.cx(0, 1)
        original.cx(2, 3)
        routed = QuantumCircuit(4)
        routed.cx(2, 3)
        routed.cx(0, 1)
        verify_routing(original, routed, [(0, 1), (1, 2), (2, 3)], {q: q for q in range(4)})

    def test_reordering_dependent_gates_is_rejected(self):
        original = QuantumCircuit(3)
        original.cx(0, 1)
        original.cx(1, 2)
        routed = QuantumCircuit(3)
        routed.cx(1, 2)
        routed.cx(0, 1)
        with pytest.raises(RoutingValidationError):
            verify_routing(original, routed, LINE3_EDGES, {0: 0, 1: 1, 2: 2})

    def test_non_trivial_initial_layout(self):
        original = QuantumCircuit(3)
        original.cx(0, 2)
        routed = QuantumCircuit(3)
        routed.cx(0, 1)  # logical 2 starts on physical 1
        verify_routing(original, routed, LINE3_EDGES, {0: 0, 1: 2, 2: 1})

    def test_single_qubit_gates_follow_their_logical_qubit(self):
        original = QuantumCircuit(2)
        original.h(1)
        original.cx(0, 1)
        routed = QuantumCircuit(3)
        routed.h(2)  # logical 1 placed on physical 2
        routed.swap(1, 2)
        routed.cx(0, 1)
        verify_routing(original, routed, LINE3_EDGES, {0: 0, 1: 2})


class TestInputSwaps:
    """SWAPs of the original are routed like any gate and move its states."""

    @staticmethod
    def original_with_swap() -> QuantumCircuit:
        original = QuantumCircuit(3)
        original.swap(0, 1)
        original.cx(0, 2)  # acts on the state that started on qubit 1
        return original

    def test_routed_input_swap_passes(self):
        routed = QuantumCircuit(3)
        routed.swap(0, 1)  # the input's SWAP
        routed.swap(1, 2)  # the router's SWAP
        routed.cx(0, 1)
        verify_routing(self.original_with_swap(), routed, LINE3_EDGES, [0, 1, 2])

    def test_dropped_input_swap_fails(self):
        routed = QuantumCircuit(3)
        routed.swap(1, 2)
        routed.cx(0, 1)
        with pytest.raises(RoutingValidationError):
            verify_routing(self.original_with_swap(), routed, LINE3_EDGES, [0, 1, 2])
