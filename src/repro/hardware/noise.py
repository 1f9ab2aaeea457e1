"""Device noise models and error-aware routing metrics.

The paper's conclusion lists "customized qubit-state and error-aware mapping
heuristics" as future work; this module provides the substrate for that
extension: per-edge two-qubit error rates and per-qubit single-qubit /
readout error rates attached to a coupling graph, plus the standard
success-probability estimate of a routed circuit (the product of the
fidelities of its operations).

The noise numbers default to values representative of current superconducting
devices (median CX error around 1e-2 for IBM Eagle-class chips, single-qubit
error around 3e-4) with deterministic per-edge jitter so that error-aware
decisions have something to exploit; calibrated values can be supplied
explicitly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.circuit.circuit import QuantumCircuit
from repro.hardware.coupling import CouplingGraph


@dataclass
class NoiseModel:
    """Per-edge and per-qubit error rates for a device."""

    two_qubit_error: dict[tuple[int, int], float] = field(default_factory=dict)
    single_qubit_error: dict[int, float] = field(default_factory=dict)
    readout_error: dict[int, float] = field(default_factory=dict)

    def edge_error(self, a: int, b: int) -> float:
        """Two-qubit gate error rate of a coupling edge (order-insensitive)."""
        key = (min(a, b), max(a, b))
        if key not in self.two_qubit_error:
            raise KeyError(f"no calibration data for edge {key}")
        return self.two_qubit_error[key]

    def qubit_error(self, qubit: int) -> float:
        """Single-qubit gate error rate of a physical qubit."""
        return self.single_qubit_error.get(qubit, 0.0)

    def edge_fidelity(self, a: int, b: int) -> float:
        """1 - error of the edge."""
        return 1.0 - self.edge_error(a, b)

    def swap_fidelity(self, a: int, b: int) -> float:
        """Fidelity of a SWAP, decomposed as three CX gates on the edge."""
        return self.edge_fidelity(a, b) ** 3

    @classmethod
    def uniform(
        cls,
        coupling: CouplingGraph,
        two_qubit_error: float = 1e-2,
        single_qubit_error: float = 3e-4,
        readout_error: float = 1e-2,
    ) -> "NoiseModel":
        """A noise model with identical error rates everywhere."""
        return cls(
            two_qubit_error={edge: two_qubit_error for edge in coupling.edges()},
            single_qubit_error={q: single_qubit_error for q in range(coupling.num_qubits)},
            readout_error={q: readout_error for q in range(coupling.num_qubits)},
        )

    @classmethod
    def synthetic(
        cls,
        coupling: CouplingGraph,
        median_two_qubit_error: float = 1e-2,
        spread: float = 0.5,
        seed: int = 0,
    ) -> "NoiseModel":
        """A deterministic, heterogeneous noise model.

        Edge errors are log-normally distributed around the median (mirroring
        published calibration data); the RNG is seeded so experiments are
        reproducible.
        """
        rng = random.Random(seed)
        two_qubit = {}
        for edge in coupling.edges():
            factor = math.exp(rng.gauss(0.0, spread))
            two_qubit[edge] = min(0.5, median_two_qubit_error * factor)
        single = {
            q: min(0.1, 3e-4 * math.exp(rng.gauss(0.0, spread)))
            for q in range(coupling.num_qubits)
        }
        readout = {
            q: min(0.3, 1e-2 * math.exp(rng.gauss(0.0, spread)))
            for q in range(coupling.num_qubits)
        }
        return cls(two_qubit, single, readout)


def success_probability(
    routed: QuantumCircuit, noise: NoiseModel, include_readout: bool = False
) -> float:
    """Estimated success probability of a routed circuit.

    The estimate is the product of the fidelities of every operation: each
    two-qubit gate contributes the fidelity of its edge (SWAPs count as three
    CX gates), each single-qubit gate its qubit's fidelity, and optionally
    each used qubit contributes one readout.
    """
    log_probability = 0.0
    used: set[int] = set()
    for gate in routed:
        if gate.is_barrier:
            continue
        used.update(gate.qubits)
        if gate.is_swap:
            fidelity = noise.swap_fidelity(*gate.qubits)
        elif gate.num_qubits == 2:
            fidelity = noise.edge_fidelity(*gate.qubits)
        else:
            fidelity = 1.0 - noise.qubit_error(gate.qubits[0])
        if fidelity <= 0.0:
            return 0.0
        log_probability += math.log(fidelity)
    if include_readout:
        for qubit in used:
            readout = 1.0 - noise.readout_error.get(qubit, 0.0)
            if readout <= 0.0:
                return 0.0
            log_probability += math.log(readout)
    return math.exp(log_probability)


def error_weighted_distance(
    coupling: CouplingGraph, noise: NoiseModel
) -> list[list[float]]:
    """All-pairs 'error distance' matrix.

    Each edge is weighted by ``-3 * log(1 - error)`` -- the log-infidelity of
    the SWAP that would traverse it -- and shortest paths are computed over
    those weights, giving a drop-in replacement for the hop-count matrix
    ``Dphys`` that prefers routes over well-calibrated couplers.  Unreachable
    pairs read 0.0.

    One heap-based Dijkstra runs per source.  A qubit's entry is the least
    float ``distance(neighbour) + weight`` over the neighbours settled before
    it, and float addition is monotone, so the entries do not depend on the
    order of relaxation or on heap ties: they equal networkx's
    ``all_pairs_dijkstra_path_length`` bit for bit, even where equal-cost
    paths sum to floats that differ in the last bit.
    """
    n = coupling.num_qubits
    weighted: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b in coupling.edges():
        weight = -3.0 * math.log(max(1e-9, 1.0 - noise.edge_error(a, b)))
        weighted[a].append((b, weight))
        weighted[b].append((a, weight))
    matrix = []
    for source in range(n):
        best = [math.inf] * n
        best[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            length, node = heappop(heap)
            if length > best[node]:
                continue  # superseded by a shorter path pushed later
            for other, weight in weighted[node]:
                candidate = length + weight
                if candidate < best[other]:
                    best[other] = candidate
                    heappush(heap, (candidate, other))
        matrix.append([0.0 if length == math.inf else length for length in best])
    return matrix
