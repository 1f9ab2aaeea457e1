"""Tests for the QuantumCircuit container."""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate


class TestConstruction:
    def test_needs_positive_qubits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_append_validates_qubit_range(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.cx(0, 2)

    def test_builders_append_gates(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 2)
        circuit.swap(1, 2)
        circuit.measure(0)
        assert [g.name for g in circuit] == ["h", "cx", "rz", "swap", "measure"]

    def test_extend(self):
        circuit = QuantumCircuit(2)
        circuit.extend([Gate("h", (0,)), Gate("cx", (0, 1))])
        assert len(circuit) == 2

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1 and len(clone) == 2

    def test_indexing_and_iteration(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        assert circuit[1].name == "cx"
        assert [g.name for g in circuit] == ["h", "cx"]


class TestDepth:
    def test_empty_circuit_has_zero_depth(self):
        assert QuantumCircuit(3).depth() == 0

    def test_sequential_gates_stack(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.x(0)
        circuit.t(0)
        assert circuit.depth() == 3

    def test_parallel_gates_share_a_level(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        assert circuit.depth() == 1

    def test_two_qubit_gate_synchronises_operands(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(1)
        assert circuit.depth() == 3

    def test_barrier_synchronises_without_adding_depth(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)
        assert circuit.depth() == 2

    def test_ghz_depth_is_linear(self):
        circuit = QuantumCircuit(5)
        circuit.h(0)
        for q in range(4):
            circuit.cx(q, q + 1)
        assert circuit.depth() == 5


class TestViews:
    def test_two_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cz(1, 2)
        assert len(circuit.two_qubit_gates()) == 2

    def test_count_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)
        circuit.cx(0, 1)
        assert circuit.count_ops() == {"h": 2, "cx": 1}

    def test_without_filters_gates(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.swap(0, 1)
        filtered = circuit.without(lambda g: g.is_swap)
        assert [g.name for g in filtered] == ["h"]

    def test_remapped(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        remapped = circuit.remapped({0: 4, 1: 2})
        assert remapped.gates[0].qubits == (4, 2)
        assert remapped.num_qubits == 5

    def test_equality(self):
        a = QuantumCircuit(2)
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.cx(0, 1)
        assert a == b
        b.h(0)
        assert a != b
