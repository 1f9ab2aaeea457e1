"""Tests for the dependence analysis (use map, Rdep, closure, omega weights)."""

import pytest

from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from tests.polyhedral.dependence import dependence_relation, dependence_weights, use_map
from tests.polyhedral.isl.closure import transitive_closure


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
            assert dependence_weights(circuit) == CircuitDAG(circuit).descendant_counts()

    def test_isl_and_dag_agree_on_qft(self):
        circuit = qft_circuit(5)
        assert dependence_weights(circuit) == CircuitDAG(circuit).descendant_counts()

    def test_paper_example_weights(self, paper_example_circuit):
        weights = dependence_weights(paper_example_circuit)
        # G0 -> {G2, G4, G5}, G1 -> {G2, G3, G4, G5}, last gates have none.
        assert weights[0] == 3
        assert weights[1] == 4
        assert weights[4] == 0 and weights[5] == 0


class TestDependenceAnalysis:
    """The counts the router and the tour example read off ``CircuitDAG`` are Eq. 1's."""

    def test_weights_keyed_by_gate_index(self, paper_example_circuit):
        # A leading barrier shifts every gate index by one but takes no time step.
        circuit = QuantumCircuit(6, [Gate("barrier", tuple(range(6))), *paper_example_circuit])
        weights = CircuitDAG(circuit).descendant_counts()
        assert sorted(weights) == [1, 2, 3, 4, 5, 6]
        assert weights == {time + 1: weight for time, weight in dependence_weights(circuit).items()}
        assert weights[1] == 3 and weights[6] == 0

    def test_relation_size_is_the_dag_edge_count(self, paper_example_circuit):
        circuits = (paper_example_circuit, qft_circuit(5), random_circuit(6, 40, seed=3))
        for circuit in circuits:
            dag_edges = list(CircuitDAG(circuit).dependence_pairs())
            assert dependence_relation(circuit).count() == len(dag_edges)
        assert dependence_relation(paper_example_circuit).count() == 7

    def test_closure_materialisation(self, paper_example_circuit):
        closure = transitive_closure(dependence_relation(paper_example_circuit))
        descendants = CircuitDAG(paper_example_circuit).descendant_counts()
        assert closure.count() == sum(descendants.values()) == 10
