"""Tests for the QASMBench-style circuit generators."""

import pytest

from repro.benchgen.qasmbench import (
    PAPER_TABLE_CIRCUITS,
    adder_circuit,
    bv_circuit,
    cat_state_circuit,
    ghz_circuit,
    ising_circuit,
    multiplier_circuit,
    qaoa_circuit,
    qasmbench_circuit,
    qasmbench_suite,
    qft_circuit,
    qram_circuit,
    qugan_circuit,
    w_state_circuit,
)
from repro.benchgen.random_circuits import random_circuit, random_two_qubit_circuit
from repro.circuit.metrics import two_qubit_gate_count


class TestFamilies:
    def test_ghz_structure(self):
        circuit = ghz_circuit(10)
        assert circuit.num_qubits == 10
        assert circuit.count_ops() == {"h": 1, "cx": 9}
        assert circuit.depth() == 10

    def test_cat_state_fanout(self):
        circuit = cat_state_circuit(6)
        assert all(g.qubits[0] == 0 for g in circuit.two_qubit_gates())

    def test_bv_interaction_count(self):
        circuit = bv_circuit(12)
        assert two_qubit_gate_count(circuit) == 11

    def test_qft_gate_count(self):
        n = 8
        circuit = qft_circuit(n)
        assert circuit.count_ops()["cp"] == n * (n - 1) // 2
        assert circuit.count_ops()["h"] == n
        assert circuit.count_ops()["swap"] == n // 2

    def test_qft_without_final_swaps(self):
        circuit = qft_circuit(6, include_final_swaps=False)
        assert "swap" not in circuit.count_ops()

    def test_w_state_touches_all_qubits(self):
        circuit = w_state_circuit(7)
        assert {q for gate in circuit for q in gate.qubits} == set(range(7))

    def test_ising_is_nearest_neighbour(self):
        circuit = ising_circuit(10, steps=2)
        for gate in circuit.two_qubit_gates():
            assert abs(gate.qubits[0] - gate.qubits[1]) == 1

    def test_qaoa_has_mixer_and_cost_layers(self):
        circuit = qaoa_circuit(10, layers=2)
        counts = circuit.count_ops()
        assert counts["h"] == 10
        assert counts["rx"] == 20
        assert counts["cx"] > 0

    def test_qugan_has_long_range_couplings(self):
        circuit = qugan_circuit(20, layers=4)
        spans = [abs(g.qubits[0] - g.qubits[1]) for g in circuit.two_qubit_gates()]
        assert max(spans) >= 10

    def test_qram_only_uses_declared_qubits(self):
        circuit = qram_circuit(20)
        assert max(q for gate in circuit for q in gate.qubits) < 20

    def test_adder_decomposed_to_two_qubit_gates(self):
        circuit = adder_circuit(16)
        assert all(g.num_qubits <= 2 for g in circuit)
        assert two_qubit_gate_count(circuit) > 20

    def test_multiplier_scales_with_width(self):
        small = multiplier_circuit(20)
        large = multiplier_circuit(45)
        assert len(large) > len(small)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            ghz_circuit(1)
        with pytest.raises(ValueError):
            qram_circuit(4)


class TestSuite:
    def test_lookup_by_family(self):
        circuit = qasmbench_circuit("qft", 10)
        assert circuit.name == "qft_n10"

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            qasmbench_circuit("unknown", 10)

    def test_paper_table_circuits_present(self):
        suite = qasmbench_suite()
        for name, _, qubits in PAPER_TABLE_CIRCUITS:
            assert name in suite
            assert suite[name].num_qubits == qubits

    def test_suite_respects_qubit_bounds(self):
        suite = qasmbench_suite(max_qubits=40, min_qubits=20)
        assert all(20 <= c.num_qubits <= 40 for c in suite.values())

    def test_suite_has_enough_circuits(self):
        assert len(qasmbench_suite()) >= 40


class TestRandomCircuits:
    def test_random_circuit_is_reproducible(self):
        assert random_circuit(5, 30, seed=1) == random_circuit(5, 30, seed=1)

    def test_random_circuit_gate_count(self):
        assert len(random_circuit(5, 30, seed=2)) == 30

    def test_two_qubit_only_variant(self):
        circuit = random_two_qubit_circuit(6, 25, seed=3)
        assert all(g.is_two_qubit for g in circuit)

    def test_minimum_qubits(self):
        with pytest.raises(ValueError):
            random_circuit(1, 5)
