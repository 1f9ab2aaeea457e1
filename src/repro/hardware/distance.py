"""All-pairs shortest-path distances on coupling graphs.

The distance matrix ``Dphys`` gives, for every pair of physical qubits, the
minimum number of coupling edges between them -- which is the number of SWAPs
needed to make them adjacent plus one, and the quantity every distance-based
routing cost (including Qlosure's) consumes.

Routing evaluates millions of ``D[p1][p2]`` lookups, so the canonical storage
is :class:`FlatDistanceTable`: one int-list row per physical qubit, built once
per coupling graph and shared by every router targeting the device.  Cost
loops bind ``row = table[p1]`` (or the :attr:`FlatDistanceTable.rows` list
itself) and hit only list indexing in the innermost loop.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.hardware.coupling import CouplingGraph


def bfs_distances(graph: "CouplingGraph", source: int) -> list[int]:
    """Distances (in edges) from ``source`` to every qubit; -1 when unreachable."""
    distances = [-1] * graph.num_qubits
    distances[source] = 0
    queue = deque([source])
    neighbors = graph.neighbors
    while queue:
        node = queue.popleft()
        next_distance = distances[node] + 1
        for neighbor in neighbors(node):
            if distances[neighbor] == -1:
                distances[neighbor] = next_distance
                queue.append(neighbor)
    return distances


def distance_matrix(graph: "CouplingGraph") -> list[list[int]]:
    """Symmetric all-pairs shortest-path matrix computed with repeated BFS."""
    return [bfs_distances(graph, source) for source in range(graph.num_qubits)]


class FlatDistanceTable:
    """All-pairs distance table: one int list per source qubit.

    :meth:`CouplingGraph.distance_table` builds it once per device with
    repeated BFS; it is the single shared copy of ``Dphys``.  ``table[p1][p2]``
    indexing (and row binding ``row = table[p1]``) reads the row lists, the
    fastest read path pure Python offers.
    """

    __slots__ = ("num_qubits", "rows")

    def __init__(self, rows: list[list[int]]):
        self.num_qubits = len(rows)
        #: One distance list per source qubit (hot-loop read path).
        self.rows = rows

    def __getitem__(self, source: int) -> list[int]:
        return self.rows[source]

    def __len__(self) -> int:
        return self.num_qubits

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"FlatDistanceTable(qubits={self.num_qubits})"


def shortest_path(graph: "CouplingGraph", source: int, target: int) -> list[int]:
    """One shortest path between two physical qubits, endpoints included.

    A device usually has several shortest paths between two qubits; this
    returns the one networkx's ``shortest_path`` returns on a ``Graph`` built
    from the same edges.  The search is a bidirectional BFS: each step grows
    the smaller frontier (the source side on a tie) by one level, visiting
    neighbours in the order their edges were first given
    (:attr:`CouplingGraph.ordered_neighbors`), and stops at the first qubit
    both sides have reached.  LightSABRE's release valve commits the first
    hop of this path, so another tie-break would change routed outputs.

    Raises ``ValueError`` for a qubit outside the graph or when no path
    exists.
    """
    for qubit in (source, target):
        if not 0 <= qubit < graph.num_qubits:
            raise ValueError(f"physical qubit {qubit} is outside [0, {graph.num_qubits})")
    if source == target:
        return [source]
    adjacent = graph.ordered_neighbors
    pred: dict[int, int | None] = {source: None}
    succ: dict[int, int | None] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            forward, meet = _grow(forward, adjacent, pred, succ)
        else:
            reverse, meet = _grow(reverse, adjacent, succ, pred)
        if meet is not None:
            return _chain(pred, meet)[::-1] + _chain(succ, succ[meet])
    raise ValueError(f"no path between physical qubits {source} and {target}")


def _grow(
    level: list[int],
    adjacent: tuple[tuple[int, ...], ...],
    parents: dict[int, int | None],
    other_side: dict[int, int | None],
) -> tuple[list[int], int | None]:
    """Expand one BFS level; return the next level and the first meeting qubit."""
    frontier = []
    for node in level:
        for neighbor in adjacent[node]:
            if neighbor not in parents:
                parents[neighbor] = node
                frontier.append(neighbor)
            if neighbor in other_side:
                return frontier, neighbor
    return frontier, None


def _chain(parents: dict[int, int | None], node: int | None) -> list[int]:
    """Follow ``parents`` from ``node`` to the search's root."""
    chain = []
    while node is not None:
        chain.append(node)
        node = parents[node]
    return chain
