"""Tests for the circuit dependence DAG."""

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG


def linear_cnot_chain(n: int) -> QuantumCircuit:
    circuit = QuantumCircuit(n)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


class TestStructure:
    def test_paper_example_dependences(self, paper_example_circuit):
        dag = CircuitDAG(paper_example_circuit)
        # G0=cx(0,1), G1=cx(2,3), G2=cx(1,2), G3=cx(3,5), G4=cx(0,2), G5=cx(1,5)
        assert set(dag.layers()[0]) == {0, 1}
        assert set(dag.successors(0)) == {2, 4}  # shares q1 with G2, q0 with G4
        assert set(dag.successors(1)) == {2, 3}
        assert set(dag.predecessors(2)) == {0, 1}
        assert set(dag.successors(2)) == {4, 5}

    def test_chain_is_fully_sequential(self):
        dag = CircuitDAG(linear_cnot_chain(5))
        assert dag.layers()[0] == [0]
        assert dag.depth() == 4

    def test_independent_gates_all_in_front(self):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        circuit.cx(4, 5)
        dag = CircuitDAG(circuit)
        assert len(dag.layers()[0]) == 3
        assert dag.depth() == 1

    def test_barriers_are_excluded(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.cx(0, 1)
        dag = CircuitDAG(circuit)
        assert dag.num_nodes() == 2

    def test_single_qubit_gates_can_be_excluded(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        dag = CircuitDAG(circuit, include_single_qubit=False)
        assert dag.num_nodes() == 1

    def test_no_duplicate_edges_for_shared_pair(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        dag = CircuitDAG(circuit)
        assert dag.successors(0) == (1,)
        assert dag.predecessors(1) == (0,)


class TestLevels:
    def test_asap_levels_of_chain(self):
        dag = CircuitDAG(linear_cnot_chain(4))
        assert dag.asap_levels() == {0: 0, 1: 1, 2: 2}

    def test_layers_group_by_level(self, paper_example_circuit):
        dag = CircuitDAG(paper_example_circuit)
        layers = dag.layers()
        assert sorted(layers[0]) == [0, 1]
        assert sorted(layers[1]) == [2, 3]
        assert sorted(layers[2]) == [4, 5]

    def test_depth_matches_circuit_two_qubit_depth(self, paper_example_circuit):
        dag = CircuitDAG(paper_example_circuit)
        assert dag.depth() == 3

    def test_empty_circuit(self):
        dag = CircuitDAG(QuantumCircuit(2))
        assert dag.depth() == 0
        assert dag.layers() == []


class TestDescendants:
    def test_chain_descendant_counts(self):
        dag = CircuitDAG(linear_cnot_chain(5))
        counts = dag.descendant_counts()
        assert counts == {0: 3, 1: 2, 2: 1, 3: 0}

    def test_descendant_counts_returns_a_fresh_dict(self):
        # Qlosure keeps the dict for a whole route; writing to it must not
        # reach the DAG's cached bitsets or a later caller.
        dag = CircuitDAG(linear_cnot_chain(4))
        counts = dag.descendant_counts()
        counts[0] = 99
        counts.pop(2)
        assert dag.descendant_counts() == {0: 2, 1: 1, 2: 0}
        assert dag.descendant_counts() is not dag.descendant_counts()

    def test_counts_match_descendant_sets(self, paper_example_circuit):
        dag = CircuitDAG(paper_example_circuit)
        counts = dag.descendant_counts()
        for index in dag.gate_indices:
            assert counts[index] == len(dag.descendants(index))

    def test_paper_example_weights(self, paper_example_circuit):
        dag = CircuitDAG(paper_example_circuit)
        counts = dag.descendant_counts()
        # G0 reaches G2, G4, G5; G1 reaches G2, G3, G4, G5.
        assert counts[0] == 3
        assert counts[1] == 4
        assert counts[4] == 0 and counts[5] == 0

    def test_dependence_pairs_iteration(self, paper_example_circuit):
        dag = CircuitDAG(paper_example_circuit)
        pairs = set(dag.dependence_pairs())
        assert (0, 2) in pairs and (2, 5) in pairs
        assert all(a < b for a, b in pairs)
