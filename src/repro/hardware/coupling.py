"""The device coupling graph: which physical qubit pairs can interact."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.hardware.distance import FlatDistanceTable, bfs_distances, shortest_path


class CouplingGraph:
    """An undirected graph over physical qubits with SWAP-distance queries.

    The graph is the hardware abstraction the mapper consumes (the paper's
    set ``Rhw``).  Edges are undirected: if ``(p1, p2)`` is present, a
    two-qubit gate (and a SWAP) may be applied between ``p1`` and ``p2``.  An
    edge given twice, in either orientation, is kept once.

    Every query is answered from tables built once here: a flat row-major
    adjacency bytearray, per-qubit neighbour tuples (sorted, and in the order
    their edges were first given), per-qubit incident-edge tuples and the
    edge list.  The routing hot path reads the sorted views.  The given order
    fixes :meth:`edges` and the tie-breaks of :meth:`shortest_path`, which
    match a networkx ``Graph`` built from the same edges: QUEKO generation,
    synthetic noise models and Sherbrooke-2X consume that edge order, and
    LightSABRE's release valve commits the first hop of that path.
    """

    def __init__(
        self,
        num_qubits: int,
        edges: Iterable[tuple[int, int]],
        name: str = "device",
    ):
        if num_qubits <= 0:
            raise ValueError("a coupling graph needs at least one qubit")
        n = self._num_qubits = int(num_qubits)
        self.name = name
        # Flat row-major adjacency table: adjacency[a * n + b] is 1 iff coupled.
        adjacency = bytearray(n * n)
        ordered: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-coupling ({a}, {b}) is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references a qubit outside [0, {n})")
            if adjacency[a * n + b]:
                continue
            adjacency[a * n + b] = adjacency[b * n + a] = 1
            ordered[a].append(b)
            ordered[b].append(a)
        self._adjacency = bytes(adjacency)
        self._ordered = tuple(map(tuple, ordered))
        self._neighbors = tuple(tuple(sorted(around)) for around in ordered)
        self._incident = tuple(
            tuple((min(qubit, other), max(qubit, other)) for other in around)
            for qubit, around in enumerate(self._neighbors)
        )
        self._edges = tuple(
            (qubit, other)
            for qubit, around in enumerate(ordered)
            for other in around
            if other > qubit
        )
        self._distance = None  # FlatDistanceTable, built lazily once
        self._distance_rows: dict[int, list[int]] = {}

    # -- basic accessors -----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits on the device."""
        return self._num_qubits

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

    @property
    def ordered_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per-qubit neighbours in the order their edges were first given."""
        return self._ordered

    def edges(self) -> list[tuple[int, int]]:
        """The coupling edges as (min, max) pairs.

        Qubits come in index order, each followed by its higher-numbered
        neighbours in the order their edges were first given.
        """
        return list(self._edges)

    def num_edges(self) -> int:
        """Number of coupling edges."""
        return len(self._edges)

    def neighbors(self, qubit: int) -> list[int]:
        """Physical qubits directly coupled to ``qubit`` (sorted)."""
        return list(self._neighbors[qubit])

    def degree(self, qubit: int) -> int:
        """Number of neighbours of ``qubit``."""
        return len(self._neighbors[qubit])

    def max_degree(self) -> int:
        """Maximum degree over all qubits (used to size the look-ahead window)."""
        return max((len(around) for around in self._neighbors), default=0)

    def is_connected(self) -> bool:
        """True when every qubit is reachable from qubit 0 (cached BFS row)."""
        return -1 not in self.distance_row(0)

    # -- distances -------------------------------------------------------------

    def distance_table(self) -> FlatDistanceTable:
        """The shared flat all-pairs distance table (built once, then cached)."""
        if self._distance is None:
            rows = [
                self._distance_rows.get(source) or bfs_distances(self, source)
                for source in range(self._num_qubits)
            ]
            self._distance = FlatDistanceTable(rows)
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
            row = bfs_distances(self, source)
            self._distance_rows[source] = row
        return row

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance (in edges) between two physical qubits."""
        return self.distance_row(a)[b]

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path between two physical qubits (inclusive endpoints).

        See :func:`repro.hardware.distance.shortest_path` for which one.
        """
        return shortest_path(self, a, b)

    # -- construction helpers ---------------------------------------------------

    def subgraph(self, qubits: Sequence[int], name: str | None = None) -> "CouplingGraph":
        """Induced subgraph over distinct qubits of this graph, reindexed from 0.

        The subgraph's edges keep this graph's edge order.  A repeated qubit
        or one outside the graph raises ``ValueError``.
        """
        index: dict[int, int] = {}
        for qubit in qubits:
            if not 0 <= qubit < self._num_qubits:
                raise ValueError(
                    f"qubit {qubit} is outside {self.name!r} ([0, {self._num_qubits}))"
                )
            if qubit in index:
                raise ValueError(f"qubit {qubit} appears twice in the subgraph's qubits")
            index[qubit] = len(index)
        edges = [
            (index[a], index[b]) for a, b in self._edges if a in index and b in index
        ]
        return CouplingGraph(len(index), edges, name or f"{self.name}-sub")

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_qubits))

    def __repr__(self) -> str:
        return (
            f"CouplingGraph(name={self.name!r}, qubits={self._num_qubits}, "
            f"edges={self.num_edges()}, max_degree={self.max_degree()})"
        )
