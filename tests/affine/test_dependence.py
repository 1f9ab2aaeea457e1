"""Tests for the dependence analysis (use map, Rdep, closure, omega weights)."""

import pytest

from repro.affine.dependence import (
    DependenceAnalysis,
    dependence_relation,
    dependence_weights,
    use_map,
)
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.isl.closure import transitive_closure


class TestUseMap:
    def test_maps_time_to_qubit_pairs(self, paper_example_circuit):
        relation = use_map(paper_example_circuit)
        assert relation.count() == 6
        assert relation.contains_pair((0,), (0, 1))
        assert relation.contains_pair((3,), (3, 5))

    def test_single_qubit_gates_duplicate_operand(self):
        circuit = QuantumCircuit(2)
        circuit.h(1)
        relation = use_map(circuit)
        assert relation.contains_pair((0,), (1, 1))


class TestDependenceRelation:
    def test_immediate_relation_of_chain(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        relation = dependence_relation(circuit)
        assert relation.count() == 1
        ((src, dst),) = list(relation.pairs())
        assert src[0] == 0 and dst[0] == 1

    def test_full_relation_matches_paper_definition(self, paper_example_circuit):
        full = dependence_relation(paper_example_circuit, immediate_only=False)
        # Every pair of gates sharing a qubit, ordered by time.
        assert full.contains_pair((0, 0, 1), (2, 1, 2))
        assert full.contains_pair((0, 0, 1), (5, 1, 5))  # transitive sharing pair
        assert not full.contains_pair((2, 1, 2), (0, 0, 1))

    def test_closures_of_immediate_and_full_agree(self, paper_example_circuit):
        immediate = dependence_relation(paper_example_circuit, immediate_only=True)
        full = dependence_relation(paper_example_circuit, immediate_only=False)
        assert transitive_closure(immediate).pair_set() == transitive_closure(full).pair_set()

    def test_independent_gates_have_no_dependences(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        assert dependence_relation(circuit).is_empty()


class TestWeights:
    def test_chain_weights_decrease(self):
        circuit = ghz_circuit(6)
        weights = dependence_weights(circuit)
        values = [weights[t] for t in sorted(weights)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 0

    # The ISL oracle is keyed by time-step and the router's DAG path by gate
    # index; the two coincide on barrier-free circuits.
    def test_isl_and_dag_paths_agree(self):
        for circuit in (random_circuit(6, 40, seed=3), random_circuit(8, 450, seed=1)):
            assert dependence_weights(circuit) == DependenceAnalysis(circuit).weights()

    def test_isl_and_dag_agree_on_qft(self):
        circuit = qft_circuit(5)
        assert dependence_weights(circuit) == DependenceAnalysis(circuit).weights()

    def test_paper_example_weights(self, paper_example_circuit):
        weights = dependence_weights(paper_example_circuit)
        # G0 -> {G2, G4, G5}, G1 -> {G2, G3, G4, G5}, last gates have none.
        assert weights[0] == 3
        assert weights[1] == 4
        assert weights[4] == 0 and weights[5] == 0


class TestDependenceAnalysis:
    def test_weights_keyed_by_gate_index(self, paper_example_circuit):
        analysis = DependenceAnalysis(paper_example_circuit)
        assert analysis.weight(0) == 3
        assert analysis.weight(5) == 0
        assert len(analysis.weights()) == 6

    def test_critical_gates_ranked_by_weight(self, paper_example_circuit):
        analysis = DependenceAnalysis(paper_example_circuit)
        assert analysis.critical_gates(top=1) == [1]

    def test_levels_match_dag(self, paper_example_circuit):
        analysis = DependenceAnalysis(paper_example_circuit)
        levels = analysis.levels()
        assert levels[0] == 0 and levels[2] == 1 and levels[5] == 2

    def test_closure_materialisation(self, paper_example_circuit):
        analysis = DependenceAnalysis(paper_example_circuit, materialize_closure=True)
        assert analysis.closure is not None
        assert analysis.closure.count() >= 6

    def test_closure_not_materialised_by_default(self, paper_example_circuit):
        assert DependenceAnalysis(paper_example_circuit).closure is None
