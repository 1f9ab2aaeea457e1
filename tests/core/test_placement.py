"""Tests for initial placement strategies."""

import pytest

from repro.benchgen.qasmbench import ghz_circuit, qaoa_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.core.placement import greedy_placement, initial_layout, interaction_graph
from repro.hardware.topologies import grid_topology, line_topology
from repro.routing.layout import Layout


GRID = grid_topology(4, 4)


def placement_cost(circuit, coupling, layout) -> int:
    """Total interaction-weighted distance of a placement (lower is better).

    The classic static objective for comparing initial placements:
    ``sum over two-qubit gates of D[phi(q1), phi(q2)]``.
    """
    matrix = coupling.distance_matrix()
    return sum(
        matrix[layout.physical(gate.qubits[0])][layout.physical(gate.qubits[1])]
        for gate in circuit
        if gate.is_two_qubit
    )


class TestInteractionGraph:
    def test_counts_two_qubit_gates(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cx(1, 2)
        circuit.h(0)
        weights = interaction_graph(circuit)
        assert weights == {(0, 1): 2, (1, 2): 1}

    def test_empty_for_single_qubit_circuit(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert interaction_graph(circuit) == {}


class TestGreedyPlacement:
    def test_places_all_qubits_injectively(self):
        circuit = qaoa_circuit(10, seed=1)
        layout = greedy_placement(circuit, GRID)
        placed = layout.as_list()
        assert len(set(placed)) == 10

    def test_star_interaction_graph_clusters_around_the_hub(self):
        """A fan-out (cat state) circuit should have its hub placed centrally,
        giving a placement no worse than the corner-anchored identity layout."""
        from repro.benchgen.qasmbench import cat_state_circuit

        circuit = cat_state_circuit(6)
        greedy_cost = placement_cost(circuit, GRID, greedy_placement(circuit, GRID))
        identity_cost = placement_cost(circuit, GRID, Layout.trivial(6, GRID.num_qubits))
        assert greedy_cost <= identity_cost

    def test_beats_identity_on_shuffled_chain(self):
        """A chain over a scrambled qubit order should be re-laid-out tightly."""
        circuit = QuantumCircuit(8)
        order = [3, 7, 0, 5, 2, 6, 1, 4]
        for a, b in zip(order, order[1:]):
            circuit.cx(a, b)
        device = line_topology(8)
        greedy_cost = placement_cost(circuit, device, greedy_placement(circuit, device))
        identity_cost = placement_cost(circuit, device, Layout.trivial(8, 8))
        assert greedy_cost <= identity_cost

    def test_handles_idle_qubits(self):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)
        layout = greedy_placement(circuit, GRID)
        assert len(set(layout.as_list())) == 5


class TestInitialLayoutDispatch:
    def test_identity(self):
        layout = initial_layout(ghz_circuit(4), GRID, "identity")
        assert layout.as_list() == [0, 1, 2, 3]

    def test_greedy(self):
        layout = initial_layout(ghz_circuit(4), GRID, "greedy")
        assert len(set(layout.as_list())) == 4

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError):
            initial_layout(ghz_circuit(4), GRID, "magic")


class TestPlacementCost:
    def test_zero_when_all_pairs_adjacent(self):
        circuit = ghz_circuit(4)
        cost = placement_cost(circuit, line_topology(4), Layout.trivial(4, 4))
        assert cost == 3

    def test_penalises_distant_pairs(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        device = line_topology(6)
        near = placement_cost(circuit, device, Layout(2, 6, {0: 0, 1: 1}))
        far = placement_cost(circuit, device, Layout(2, 6, {0: 0, 1: 5}))
        assert near < far
