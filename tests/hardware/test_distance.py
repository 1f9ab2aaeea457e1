"""Tests for BFS distances on coupling graphs."""

import pytest

from repro.hardware.coupling import CouplingGraph
from repro.hardware.distance import bfs_distances, distance_matrix, shortest_path
from repro.hardware.topologies import grid_topology, line_topology


class TestBfsDistances:
    def test_line_distances_from_end(self):
        line = line_topology(6)
        assert bfs_distances(line, 0) == [0, 1, 2, 3, 4, 5]

    def test_unreachable_marked_minus_one(self):
        disconnected = CouplingGraph(4, [(0, 1)])
        distances = bfs_distances(disconnected, 0)
        assert distances[1] == 1
        assert distances[2] == -1 and distances[3] == -1

    def test_matrix_diagonal_is_zero(self):
        grid = grid_topology(3, 3)
        matrix = distance_matrix(grid)
        assert all(matrix[q][q] == 0 for q in range(9))

    def test_matrix_matches_manhattan_distance_on_grid(self):
        grid = grid_topology(4, 4)
        matrix = distance_matrix(grid)
        for a in range(16):
            for b in range(16):
                manhattan = abs(a // 4 - b // 4) + abs(a % 4 - b % 4)
                assert matrix[a][b] == manhattan

    def test_triangle_inequality(self):
        grid = grid_topology(3, 4)
        matrix = distance_matrix(grid)
        n = grid.num_qubits
        for a in range(n):
            for b in range(n):
                for c in range(0, n, 3):
                    assert matrix[a][b] <= matrix[a][c] + matrix[c][b]


class TestFlatDistanceTable:
    def test_matches_nested_matrix(self):
        grid = grid_topology(3, 4)
        table = grid.distance_table()
        nested = distance_matrix(grid)
        for a in range(grid.num_qubits):
            assert table[a] == nested[a]

    def test_iteration_and_len(self):
        line = line_topology(3)
        table = line.distance_table()
        assert len(table) == 3
        assert [row[0] for row in table] == [0, 1, 2]

    def test_shared_per_coupling_graph(self):
        grid = grid_topology(3, 3)
        assert grid.distance_table() is grid.distance_table()
        assert grid.distance_matrix() is grid.distance_table().rows

    def test_scalar_query_uses_row_cache_not_all_pairs(self):
        grid = grid_topology(5, 5)
        assert grid.distance(0, 24) == 8
        # A single-pair query must not have materialised the full table.
        assert grid._distance is None
        assert set(grid._distance_rows) == {0}
        # The all-pairs table reuses already-computed rows afterwards.
        table = grid.distance_table()
        assert table[0][24] == 8


class TestShortestPath:
    def test_trivial_path(self):
        line = line_topology(3)
        assert shortest_path(line, 1, 1) == [1]

    def test_path_length_matches_distance(self):
        grid = grid_topology(3, 3)
        path = shortest_path(grid, 0, 8)
        assert len(path) == 5

    def test_path_uses_only_edges(self):
        grid = grid_topology(3, 3)
        path = shortest_path(grid, 2, 6)
        for a, b in zip(path, path[1:]):
            assert b in grid.neighbors(a)

    def test_no_path_raises(self):
        disconnected = CouplingGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            shortest_path(disconnected, 0, 3)
