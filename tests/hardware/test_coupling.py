"""Tests for the coupling graph model."""

import pytest

from repro.hardware.backends import sherbrooke
from repro.hardware.coupling import CouplingGraph


class TestConstruction:
    def test_basic_properties(self, line5):
        assert line5.num_qubits == 5
        assert line5.num_edges() == 4
        assert line5.max_degree() == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 5)])

    def test_needs_positive_qubits(self):
        with pytest.raises(ValueError):
            CouplingGraph(0, [])


class TestQueries:
    def test_neighbors_sorted(self, grid3x3):
        assert grid3x3.neighbors(4) == [1, 3, 5, 7]

    def test_degree(self, grid3x3):
        assert grid3x3.degree(0) == 2
        assert grid3x3.degree(4) == 4

    def test_connectivity(self, line5):
        assert line5.is_connected()
        disconnected = CouplingGraph(4, [(0, 1), (2, 3)])
        assert not disconnected.is_connected()

    def test_edges_are_normalised(self):
        graph = CouplingGraph(3, [(2, 1), (1, 0)])
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_edges_keep_the_order_they_were_given(self):
        graph = CouplingGraph(4, [(3, 0), (1, 2), (0, 2), (2, 1), (0, 1)])
        assert graph.edges() == [(0, 3), (0, 2), (0, 1), (1, 2)]
        assert graph.num_edges() == 4
        assert graph.neighbors(0) == [1, 2, 3]
        assert graph.ordered_neighbors[0] == (3, 2, 1)

    def test_iteration_yields_qubits(self, line5):
        assert list(line5) == [0, 1, 2, 3, 4]


class TestDistances:
    def test_line_distances(self, line5):
        assert line5.distance(0, 4) == 4
        assert line5.distance(2, 2) == 0

    def test_ring_wraps_around(self, ring6):
        assert ring6.distance(0, 5) == 1
        assert ring6.distance(0, 3) == 3

    def test_distance_matrix_is_symmetric(self, grid3x3):
        matrix = grid3x3.distance_matrix()
        for a in range(9):
            for b in range(9):
                assert matrix[a][b] == matrix[b][a]

    def test_shortest_path_endpoints(self, grid3x3):
        path = grid3x3.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == grid3x3.distance(0, 8) + 1
        for a, b in zip(path, path[1:]):
            assert b in grid3x3.neighbors(a)

    @pytest.mark.parametrize("pair, outside", [((0, 500), 500), ((500, 0), 500), ((-1, 3), -1)])
    def test_shortest_path_rejects_qubits_outside_the_graph(self, pair, outside):
        with pytest.raises(ValueError, match=f"qubit {outside} "):
            sherbrooke().shortest_path(*pair)

    def test_shortest_path_without_a_path_raises_value_error(self):
        with pytest.raises(ValueError, match="no path"):
            CouplingGraph(4, [(0, 1), (2, 3)]).shortest_path(0, 3)


class TestSubgraph:
    def test_subgraph_reindexes(self, grid3x3):
        sub = grid3x3.subgraph([0, 1, 3, 4])
        assert sub.num_qubits == 4
        assert sub.neighbors(0) == [1, 2]

    def test_subgraph_drops_external_edges(self, line5):
        sub = line5.subgraph([0, 2, 4])
        assert sub.num_edges() == 0

    def test_subgraph_rejects_a_repeated_qubit(self):
        with pytest.raises(ValueError, match="qubit 0 "):
            sherbrooke().subgraph([0, 0])

    @pytest.mark.parametrize("qubit", [500, 127, -1])
    def test_subgraph_rejects_a_qubit_outside_the_graph(self, qubit):
        with pytest.raises(ValueError, match=f"qubit {qubit} "):
            sherbrooke().subgraph([0, 1, qubit])
