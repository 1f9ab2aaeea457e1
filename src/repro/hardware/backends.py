"""Concrete evaluation back-ends of the paper.

Three devices are used in the paper's evaluation plus two dense grids used to
*generate* the custom QUEKO benchmark sets:

* ``sherbrooke()``   -- IBM Sherbrooke, a 127-qubit heavy-hexagon lattice,
* ``ankaa3()``       -- Rigetti Ankaa-3, an 82-qubit square-lattice device,
* ``sherbrooke_2x()``-- a synthetic 256-qubit device made of two Sherbrooke
  lattices joined by two bridging qubits (as described in Sec. VI-A3),
* ``grid_9x9()``     -- the 81-qubit 8-neighbour grid used to generate the
  custom ``queko-bss-81qbt`` circuits,
* ``grid_16x16()``   -- the 256-qubit 8-neighbour grid used to generate the
  circuits evaluated on Sherbrooke-2X.

The coupling graphs are generated from the published topology descriptions
(heavy-hex family for IBM, square lattice for Rigetti); they reproduce the
qubit counts, degree bounds and lattice structure the mapper's behaviour
depends on.
"""

from __future__ import annotations

from typing import Callable

from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology, heavy_hex_topology, king_grid_topology


def sherbrooke() -> CouplingGraph:
    """IBM Sherbrooke: 127-qubit heavy-hexagon lattice (degree <= 3)."""
    graph = heavy_hex_topology(rows=7, row_length=15, name="ibm-sherbrooke")
    if graph.num_qubits != 127:
        raise AssertionError(
            f"Sherbrooke construction produced {graph.num_qubits} qubits, expected 127"
        )
    return graph


def ankaa3() -> CouplingGraph:
    """Rigetti Ankaa-3: 82-qubit square lattice (degree <= 4).

    Ankaa-3 exposes 82 functional qubits on a 7x12 square-lattice tiling; we
    build the 84-qubit lattice and drop the two corner qubits, then reindex,
    which preserves the lattice structure and the published qubit count.
    """
    base = grid_topology(7, 12, name="rigetti-ankaa-3-base")
    keep = [q for q in range(base.num_qubits) if q not in (0, 83)]
    graph = base.subgraph(keep, name="rigetti-ankaa-3")
    if graph.num_qubits != 82:
        raise AssertionError(
            f"Ankaa-3 construction produced {graph.num_qubits} qubits, expected 82"
        )
    return graph


def sherbrooke_2x() -> CouplingGraph:
    """Synthetic 256-qubit backend: two Sherbrooke lattices plus two bridges.

    Following the paper, two copies of the Sherbrooke heavy-hex lattice are
    concatenated and two extra qubits bridge the right edge of the first copy
    to the left edge of the second copy, forming an extended heavy-hex
    lattice with 256 qubits.
    """
    base = sherbrooke()
    offset = base.num_qubits
    edges = list(base.edges())
    edges += [(a + offset, b + offset) for a, b in base.edges()]
    bridge_a = 2 * offset
    bridge_b = 2 * offset + 1
    # Attach each bridge between a boundary qubit of copy 1 and copy 2.
    right_edge_of_copy1 = offset - 1          # last qubit of the first lattice
    mid_edge_of_copy1 = offset // 2
    left_edge_of_copy2 = offset               # first qubit of the second lattice
    mid_edge_of_copy2 = offset + offset // 2
    edges.append((right_edge_of_copy1, bridge_a))
    edges.append((bridge_a, left_edge_of_copy2))
    edges.append((mid_edge_of_copy1, bridge_b))
    edges.append((bridge_b, mid_edge_of_copy2))
    graph = CouplingGraph(2 * offset + 2, edges, name="ibm-sherbrooke-2x")
    if graph.num_qubits != 256:
        raise AssertionError(
            f"Sherbrooke-2X construction produced {graph.num_qubits} qubits, expected 256"
        )
    return graph


def grid_9x9() -> CouplingGraph:
    """81-qubit 9x9 grid with 8-neighbour connectivity (QUEKO generation device)."""
    return king_grid_topology(9, 9, name="grid-9x9-king")


def grid_16x16() -> CouplingGraph:
    """256-qubit 16x16 grid with 8-neighbour connectivity (QUEKO generation device)."""
    return king_grid_topology(16, 16, name="grid-16x16-king")


_BACKENDS: dict[str, Callable[[], CouplingGraph]] = {
    "sherbrooke": sherbrooke,
    "ankaa3": ankaa3,
    "ankaa-3": ankaa3,
    "sherbrooke-2x": sherbrooke_2x,
    "sherbrooke2x": sherbrooke_2x,
    "grid-9x9": grid_9x9,
    "grid-16x16": grid_16x16,
}


def available_backends() -> list[str]:
    """Canonical names of the built-in back-ends."""
    return ["sherbrooke", "ankaa3", "sherbrooke-2x", "grid-9x9", "grid-16x16"]


#: One shared graph per factory, so aliases resolve to the same instance.
_RESOLVED: dict[Callable[[], CouplingGraph], CouplingGraph] = {}


def backend_by_name(name: str) -> CouplingGraph:
    """Look up a backend coupling graph by (case-insensitive) name.

    Each backend is built once per process and shared by every compile that
    names it, so the all-pairs distance table is computed once, not per
    compile.  The table is built before the graph is published: compiles run
    on threads (``repro.serve``), and once it exists no lazy cache of the
    graph is written again.
    """
    key = name.strip().lower()
    if key not in _BACKENDS:
        raise KeyError(f"unknown backend {name!r}; available: {available_backends()}")
    factory = _BACKENDS[key]
    graph = _RESOLVED.get(factory)
    if graph is None:
        graph = factory()
        graph.distance_table()
        # setdefault publishes atomically: threads racing on a first lookup
        # all return the first graph stored.  No lock, so a child forked
        # mid-build never inherits one held.
        graph = _RESOLVED.setdefault(factory, graph)
    return graph
