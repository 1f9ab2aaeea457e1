"""The device coupling graph: which physical qubit pairs can interact."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import networkx as nx


class CouplingGraph:
    """An undirected graph over physical qubits with SWAP-distance queries.

    The graph is the hardware abstraction the mapper consumes (the paper's
    set ``Rhw``).  Edges are undirected: if ``(p1, p2)`` is present, a
    two-qubit gate (and a SWAP) may be applied between ``p1`` and ``p2``.

    Adjacency tests, neighbour lists and candidate-SWAP edges sit on the
    routing hot path, so they are answered from precomputed structures (a
    flat row-major adjacency bytearray, per-qubit sorted neighbour tuples and
    per-qubit incident-edge tuples) rather than networkx queries; the
    networkx graph remains the source of truth for everything cold
    (connectivity checks, path reconstruction, subgraphs).
    """

    def __init__(
        self,
        num_qubits: int,
        edges: Iterable[tuple[int, int]],
        name: str = "device",
    ):
        if num_qubits <= 0:
            raise ValueError("a coupling graph needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self.name = name
        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(self._num_qubits))
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-coupling ({a}, {b}) is not allowed")
            if not (0 <= a < self._num_qubits and 0 <= b < self._num_qubits):
                raise ValueError(
                    f"edge ({a}, {b}) references a qubit outside [0, {self._num_qubits})"
                )
            self._graph.add_edge(a, b)
        # Flat row-major adjacency table: adjacency[a * n + b] is 1 iff coupled.
        n = self._num_qubits
        adjacency = bytearray(n * n)
        neighbors: list[tuple[int, ...]] = []
        incident: list[tuple[tuple[int, int], ...]] = []
        for qubit in range(n):
            around = tuple(sorted(self._graph.neighbors(qubit)))
            neighbors.append(around)
            incident.append(
                tuple((min(qubit, other), max(qubit, other)) for other in around)
            )
            base = qubit * n
            for other in around:
                adjacency[base + other] = 1
        self._adjacency = bytes(adjacency)
        self._neighbors = tuple(neighbors)
        self._incident = tuple(incident)
        self._distance = None  # FlatDistanceTable, built lazily once
        self._distance_rows: dict[int, list[int]] = {}

    # -- basic accessors -----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits on the device."""
        return self._num_qubits

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (do not mutate)."""
        return self._graph

    @property
    def adjacency(self) -> bytes:
        """Flat row-major adjacency table: ``adjacency[a * num_qubits + b]``."""
        return self._adjacency

    @property
    def incident_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-qubit incident edges as ``(min, max)`` pairs (hot-path view).

        Candidate-SWAP sets are the union of these over a footprint of
        physical qubits.
        """
        return self._incident

    def edges(self) -> list[tuple[int, int]]:
        """The coupling edges as (min, max) ordered pairs."""
        return [tuple(sorted(edge)) for edge in self._graph.edges()]

    def num_edges(self) -> int:
        """Number of coupling edges."""
        return self._graph.number_of_edges()

    def neighbors(self, qubit: int) -> list[int]:
        """Physical qubits directly coupled to ``qubit`` (sorted)."""
        return list(self._neighbors[qubit])

    def degree(self, qubit: int) -> int:
        """Number of neighbours of ``qubit``."""
        return len(self._neighbors[qubit])

    def max_degree(self) -> int:
        """Maximum degree over all qubits (used to size the look-ahead window)."""
        return max((len(around) for around in self._neighbors), default=0)

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when qubits ``a`` and ``b`` are directly coupled."""
        return self._adjacency[a * self._num_qubits + b] == 1

    def is_connected(self) -> bool:
        """True when the coupling graph is connected."""
        return nx.is_connected(self._graph)

    # -- distances -------------------------------------------------------------

    def distance_table(self):
        """The shared flat all-pairs distance table (built once, then cached)."""
        if self._distance is None:
            from repro.hardware.distance import FlatDistanceTable, bfs_distances

            rows = [
                self._distance_rows.get(source) or bfs_distances(self, source)
                for source in range(self._num_qubits)
            ]
            self._distance = FlatDistanceTable(self, rows)
            self._distance_rows.clear()
        return self._distance

    def distance_matrix(self) -> list[list[int]]:
        """All-pairs shortest-path distances (cached); -1 for unreachable pairs.

        Returns the row views of :meth:`distance_table`; treat them as
        read-only.
        """
        return self.distance_table().rows

    def distance_row(self, source: int) -> list[int]:
        """BFS distances from one qubit, cached per source.

        Single-source queries do not trigger the all-pairs computation, so
        utilities that probe a handful of pairs (placement seeding, tests)
        stay cheap on large devices.
        """
        if self._distance is not None:
            return self._distance.rows[source]
        row = self._distance_rows.get(source)
        if row is None:
            from repro.hardware.distance import bfs_distances

            row = bfs_distances(self, source)
            self._distance_rows[source] = row
        return row

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance (in edges) between two physical qubits."""
        return self.distance_row(a)[b]

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path between two physical qubits (inclusive endpoints)."""
        return nx.shortest_path(self._graph, a, b)

    # -- construction helpers ---------------------------------------------------

    def subgraph(self, qubits: Sequence[int], name: str | None = None) -> "CouplingGraph":
        """Induced subgraph over a subset of physical qubits, reindexed from 0."""
        index = {q: i for i, q in enumerate(qubits)}
        edges = [
            (index[a], index[b])
            for a, b in self._graph.edges()
            if a in index and b in index
        ]
        return CouplingGraph(len(qubits), edges, name or f"{self.name}-sub")

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_qubits))

    def __repr__(self) -> str:
        return (
            f"CouplingGraph(name={self.name!r}, qubits={self._num_qubits}, "
            f"edges={self.num_edges()}, max_degree={self.max_degree()})"
        )
