"""Initial qubit placement strategies.

The paper uses the identity placement by default (Sec. V-B4) and shows in its
ablation that a better initial layout (obtained from forward/backward routing
passes) improves results substantially.  Those passes route with the
request's own router, so they live on the engine
(:meth:`repro.routing.engine.RoutingEngine.bidirectional_layout`).  Beyond
the identity placement this module provides a cheap *interaction-graph
driven* greedy placement that downstream users typically want: logical
qubits that interact often are placed on physically close qubits, seeded
from the densest region of the device.

Available strategies (see :func:`initial_layout`):

* ``"identity"`` -- logical qubit ``i`` on physical qubit ``i`` (paper default),
* ``"greedy"``   -- interaction-weighted greedy placement.
"""

from __future__ import annotations

from collections import Counter

from repro.circuit.circuit import QuantumCircuit
from repro.hardware.coupling import CouplingGraph
from repro.routing.layout import Layout


def interaction_graph(circuit: QuantumCircuit) -> dict[tuple[int, int], int]:
    """Weighted logical interaction graph: pair -> number of two-qubit gates."""
    weights: Counter = Counter()
    for gate in circuit:
        if gate.is_two_qubit:
            a, b = sorted(gate.qubits)
            weights[(a, b)] += 1
    return dict(weights)


def _device_center(coupling: CouplingGraph) -> int:
    """The physical qubit with the smallest total distance to all others."""
    matrix = coupling.distance_matrix()
    totals = [sum(row) for row in matrix]
    return totals.index(min(totals))


def greedy_placement(circuit: QuantumCircuit, coupling: CouplingGraph) -> Layout:
    """Interaction-weighted greedy placement.

    Logical qubits are placed in decreasing order of interaction degree; each
    qubit goes to the free physical qubit minimising the distance-weighted
    cost to its already-placed interaction partners.  The first qubit is
    placed at the device's center (the qubit with minimal eccentricity) so
    the circuit occupies the best-connected region of the chip.
    """
    weights = interaction_graph(circuit)
    degree: Counter = Counter()
    partners: dict[int, list[tuple[int, int]]] = {}
    for (a, b), count in weights.items():
        degree[a] += count
        degree[b] += count
        partners.setdefault(a, []).append((b, count))
        partners.setdefault(b, []).append((a, count))

    order = sorted(range(circuit.num_qubits), key=lambda q: -degree[q])
    matrix = coupling.distance_matrix()
    free = set(range(coupling.num_qubits))
    placement: dict[int, int] = {}
    center = _device_center(coupling)

    for logical in order:
        placed_partners = [
            (placement[other], count)
            for other, count in partners.get(logical, [])
            if other in placement
        ]
        if not placed_partners:
            # Seed: the densest free location (closest to the device center).
            target = min(free, key=lambda p: matrix[center][p])
        else:
            target = min(
                free,
                key=lambda p: sum(count * matrix[p][q] for q, count in placed_partners),
            )
        placement[logical] = target
        free.discard(target)
    return Layout(circuit.num_qubits, coupling.num_qubits, placement)


def initial_layout(
    circuit: QuantumCircuit, coupling: CouplingGraph, strategy: str = "identity"
) -> Layout:
    """Build an initial layout with the named strategy (``identity`` or ``greedy``)."""
    key = strategy.strip().lower()
    if key == "identity":
        return Layout.trivial(circuit.num_qubits, coupling.num_qubits)
    if key == "greedy":
        return greedy_placement(circuit, coupling)
    raise KeyError(f"unknown placement strategy {strategy!r}; choose identity or greedy")
