"""Tests for ASCII circuit drawing."""

from repro.benchgen.qasmbench import ghz_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.drawing import draw_circuit


class TestDrawCircuit:
    def test_one_row_per_qubit(self):
        drawing = draw_circuit(ghz_circuit(4))
        assert len(drawing.splitlines()) == 4

    def test_cnot_symbols(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        drawing = draw_circuit(circuit)
        lines = drawing.splitlines()
        assert "o" in lines[0]
        assert "X" in lines[1]

    def test_swap_symbols(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        drawing = draw_circuit(circuit)
        assert drawing.count("x") >= 2

    def test_intermediate_qubits_show_vertical_link(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        lines = draw_circuit(circuit).splitlines()
        assert "|" in lines[1]

    def test_single_qubit_gate_label(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        assert "H" in draw_circuit(circuit)

    def test_barriers_are_skipped(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        with_barrier = draw_circuit(circuit)
        circuit2 = QuantumCircuit(2)
        circuit2.h(0)
        assert with_barrier == draw_circuit(circuit2)

    def test_truncation_marker(self):
        circuit = QuantumCircuit(2)
        for _ in range(30):
            circuit.cx(0, 1)
        drawing = draw_circuit(circuit, max_columns=10)
        assert "..." in drawing

    def test_rows_have_equal_length(self):
        drawing = draw_circuit(ghz_circuit(5))
        lengths = {len(line) for line in drawing.splitlines()}
        assert len(lengths) == 1
