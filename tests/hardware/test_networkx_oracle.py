"""``CouplingGraph`` and the error-distance matrix against networkx.

networkx is not a runtime dependency; it serves here as an independent
oracle for the graph queries whose *order* or *bits* other code consumes:

* ``edges()`` order feeds QUEKO generation, synthetic noise models and the
  Sherbrooke-2X construction;
* ``shortest_path`` decides which SWAP LightSABRE's release valve commits;
* ``error_weighted_distance`` feeds the error-aware router's costs.

Each graph is handed to both sides in the same edge order, with edges in
random order and orientation (and a few repeats) so that the order in which
edges were given, not their sorted order, decides every tie.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.hardware.backends import (
    ankaa3,
    backend_by_name,
    grid_9x9,
    grid_16x16,
    sherbrooke,
    sherbrooke_2x,
)
from repro.hardware.coupling import CouplingGraph
from repro.hardware.noise import NoiseModel, error_weighted_distance
from repro.hardware.topologies import grid_topology

nx = pytest.importorskip("networkx")


def random_edge_list(num_qubits: int, rng: random.Random, components: int = 1):
    """Random spanning forest plus chords, in random order and orientation.

    The forest has ``components`` trees, built like the A* property tests'
    ``random_connected_coupling`` (each qubit hangs off an earlier one of
    its tree); chords stay inside a tree.  A few edges repeat reversed.
    """
    nodes = list(range(num_qubits))
    rng.shuffle(nodes)
    cut = sorted(rng.sample(range(1, num_qubits), components - 1))
    trees = [nodes[a:b] for a, b in zip([0] + cut, cut + [num_qubits])]
    edges = []
    for tree in trees:
        edges += [(tree[i], rng.choice(tree[:i])) for i in range(1, len(tree))]
        edges += [tuple(rng.sample(tree, 2)) for _ in range(len(tree) // 2)]
    edges += [(b, a) for a, b in rng.sample(edges, min(3, len(edges)))]
    rng.shuffle(edges)
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]


def sized_edge_list(rng: random.Random, components: int):
    """A random forest on 2 to 24 qubits, as ``(num_qubits, edges)``."""
    num_qubits = rng.randint(max(2, components), 24)
    return num_qubits, random_edge_list(num_qubits, rng, components)


def nx_graph(num_qubits: int, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


def both_sides(num_qubits: int, edges):
    return CouplingGraph(num_qubits, edges), nx_graph(num_qubits, edges)


def nx_edges(graph) -> list[tuple[int, int]]:
    return [tuple(sorted(edge)) for edge in graph.edges()]


def nx_path(graph, a: int, b: int):
    try:
        return nx.shortest_path(graph, a, b)
    except nx.NetworkXNoPath:
        return None


def assert_matches_networkx(coupling: CouplingGraph, graph, sources=None) -> None:
    assert coupling.edges() == nx_edges(graph)
    assert coupling.num_edges() == graph.number_of_edges()
    assert coupling.is_connected() == nx.is_connected(graph)
    n = coupling.num_qubits
    for a in range(n) if sources is None else sources:
        for b in range(n):
            expected = nx_path(graph, a, b)
            if expected is None:
                with pytest.raises(ValueError, match="no path"):
                    coupling.shortest_path(a, b)
            else:
                assert coupling.shortest_path(a, b) == expected, (a, b)


def nx_subgraph_edges(graph, qubits) -> list[tuple[int, int]]:
    """The edges of an induced subgraph built the way networkx orders them."""
    index = {q: i for i, q in enumerate(qubits)}
    sub = nx_graph(
        len(qubits),
        [(index[a], index[b]) for a, b in graph.edges() if a in index and b in index],
    )
    induced = nx.relabel_nodes(graph.subgraph(qubits), index)
    assert {frozenset(e) for e in sub.edges()} == {frozenset(e) for e in induced.edges()}
    return nx_edges(sub)


@pytest.mark.parametrize("seed", range(40))
def test_random_connected_graphs_match(seed):
    rng = random.Random(seed)
    coupling, graph = both_sides(*sized_edge_list(rng, components=1))
    assert coupling.is_connected()
    assert_matches_networkx(coupling, graph)


@pytest.mark.parametrize("seed", range(20))
def test_random_disconnected_graphs_match(seed):
    rng = random.Random(1000 + seed)
    coupling, graph = both_sides(*sized_edge_list(rng, components=rng.randint(2, 4)))
    assert not coupling.is_connected()
    assert_matches_networkx(coupling, graph)


def test_sorted_edge_order_matches():
    """Sorted edge lists, as ``random_connected_coupling`` hands them over."""
    rng = random.Random(7)
    for _ in range(10):
        num_qubits, edges = sized_edge_list(rng, components=1)
        edges = sorted({tuple(sorted(edge)) for edge in edges})
        assert_matches_networkx(*both_sides(num_qubits, edges))


@pytest.mark.parametrize("seed", range(20))
def test_random_subgraph_edges_match(seed):
    rng = random.Random(2000 + seed)
    num_qubits, edges = sized_edge_list(rng, components=rng.randint(1, 3))
    coupling, graph = both_sides(num_qubits, edges)
    qubits = rng.sample(range(num_qubits), rng.randint(1, num_qubits))
    sub = coupling.subgraph(qubits)
    assert sub.num_qubits == len(qubits)
    assert sub.edges() == nx_subgraph_edges(graph, qubits)


def built_with_twin(build_graph, monkeypatch):
    """``build_graph()`` and the networkx graph built from the same edge list.

    Records every edge list handed to ``CouplingGraph`` during the build
    (Ankaa-3 and Sherbrooke-2X are built from other graphs) and returns the
    networkx graph of the one the result was built from.
    """
    twins = {}
    init = CouplingGraph.__init__

    def recording_init(self, num_qubits, edges, name="device"):
        edges = list(edges)
        init(self, num_qubits, edges, name)
        twins[id(self)] = nx_graph(num_qubits, edges)

    monkeypatch.setattr(CouplingGraph, "__init__", recording_init)
    coupling = build_graph()
    monkeypatch.undo()
    return coupling, twins[id(coupling)]


#: The named backends' factories, which build a new graph on every call.
BACKENDS = [sherbrooke, ankaa3, sherbrooke_2x, grid_9x9, grid_16x16]


@pytest.mark.parametrize("factory", BACKENDS, ids=lambda factory: factory.__name__)
def test_named_backends_match(factory, monkeypatch):
    """Every pair up to 127 qubits; every 8th source at 256."""
    coupling, graph = built_with_twin(factory, monkeypatch)
    n = coupling.num_qubits
    sources = range(n) if n <= 128 else range(0, n, 8)
    assert_matches_networkx(coupling, graph, sources)


def test_ankaa3_is_the_networkx_subgraph_of_its_lattice(monkeypatch):
    lattice, graph = built_with_twin(lambda: grid_topology(7, 12), monkeypatch)
    keep = [q for q in range(lattice.num_qubits) if q not in (0, 83)]
    assert ankaa3().edges() == nx_subgraph_edges(graph, keep)


def nx_error_distance(coupling: CouplingGraph, noise: NoiseModel):
    """The networkx formulation of ``error_weighted_distance``."""
    graph = nx_graph(coupling.num_qubits, [])
    for a, b in coupling.edges():
        weight = -3.0 * math.log(max(1e-9, 1.0 - noise.edge_error(a, b)))
        graph.add_edge(a, b, weight=weight)
    matrix = [[0.0] * coupling.num_qubits for _ in range(coupling.num_qubits)]
    for source, targets in nx.all_pairs_dijkstra_path_length(graph, weight="weight"):
        for target, value in targets.items():
            matrix[source][target] = value
    return matrix


def float_bits(matrix):
    return [[float(value).hex() for value in row] for row in matrix]


@pytest.mark.parametrize("name", ["sherbrooke", "ankaa3", "sherbrooke-2x"])
@pytest.mark.parametrize("seed", range(3))
def test_error_weighted_distance_is_bit_identical(name, seed):
    coupling = backend_by_name(name)
    noise = NoiseModel.synthetic(coupling, seed=seed)
    assert float_bits(error_weighted_distance(coupling, noise)) == float_bits(
        nx_error_distance(coupling, noise)
    )


def test_error_weighted_distance_on_a_disconnected_graph():
    rng = random.Random(5)
    num_qubits, edges = sized_edge_list(rng, components=3)
    coupling = CouplingGraph(num_qubits, edges)
    noise = NoiseModel.synthetic(coupling, spread=1.5, seed=5)
    assert float_bits(error_weighted_distance(coupling, noise)) == float_bits(
        nx_error_distance(coupling, noise)
    )


@pytest.mark.parametrize("seed", range(3))
def test_error_weighted_distance_with_tied_path_costs(seed):
    """Three error rates on a grid: many equal-cost paths, summed in different orders."""
    rng = random.Random(seed)
    coupling = grid_topology(6, 6)
    noise = NoiseModel(
        two_qubit_error={edge: rng.choice([0.01, 0.02, 0.03]) for edge in coupling.edges()}
    )
    assert float_bits(error_weighted_distance(coupling, noise)) == float_bits(
        nx_error_distance(coupling, noise)
    )
