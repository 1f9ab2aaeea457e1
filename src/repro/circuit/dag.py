"""Gate dependence DAG of a circuit.

Two gates depend on each other when they share a qubit; the DAG keeps only
the *immediate* per-qubit predecessor/successor edges (the transitive
reduction along each qubit timeline), which is sufficient to recover the full
transitive dependence relation.  The DAG offers the queries the mapper and
the baselines need: front layer, successors, ASAP levels, descendant counts
(the paper's dependence weight ``omega``) and the immediate dependence pairs.
"""

from __future__ import annotations

from typing import Iterator

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate


class CircuitDAG:
    """Immediate-dependence DAG over gate indices of a circuit."""

    def __init__(self, circuit: QuantumCircuit, include_single_qubit: bool = True):
        self._circuit = circuit
        self._include_single = include_single_qubit
        gates = circuit.gates
        self._gate_indices: list[int] = [
            idx
            for idx, gate in enumerate(gates)
            if not gate.is_barrier and (include_single_qubit or gate.is_two_qubit)
        ]
        successors: dict[int, list[int]] = {i: [] for i in self._gate_indices}
        predecessors: dict[int, list[int]] = {i: [] for i in self._gate_indices}
        last_on_qubit: dict[int, int] = {}
        for idx in self._gate_indices:
            for qubit in gates[idx].qubits:
                if qubit in last_on_qubit:
                    prev = last_on_qubit[qubit]
                    if idx not in successors[prev]:
                        successors[prev].append(idx)
                        predecessors[idx].append(prev)
                last_on_qubit[qubit] = idx
        # Frozen once: the neighbour queries hand out these tuples uncopied.
        self._successors = {i: tuple(s) for i, s in successors.items()}
        self._predecessors = {i: tuple(p) for i, p in predecessors.items()}
        self._position = {
            index: pos for pos, index in enumerate(self._gate_indices)
        }

    # -- accessors ---------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        """The underlying circuit."""
        return self._circuit

    @property
    def gate_indices(self) -> tuple[int, ...]:
        """Indices (into the circuit gate list) of the gates in the DAG."""
        return tuple(self._gate_indices)

    def gate(self, index: int) -> Gate:
        """The gate at a circuit index."""
        return self._circuit[index]

    def num_nodes(self) -> int:
        """Number of gates in the DAG."""
        return len(self._gate_indices)

    def successors(self, index: int) -> tuple[int, ...]:
        """Immediate successors (gates that depend directly on ``index``)."""
        return self._successors[index]

    def predecessors(self, index: int) -> tuple[int, ...]:
        """Immediate predecessors of ``index``."""
        return self._predecessors[index]

    # -- classic DAG queries -------------------------------------------------

    def asap_levels(self) -> dict[int, int]:
        """Earliest possible level (0-based) of every gate (ASAP schedule)."""
        levels: dict[int, int] = {}
        for index in self._gate_indices:
            preds = self._predecessors[index]
            levels[index] = 0 if not preds else 1 + max(levels[p] for p in preds)
        return levels

    def layers(self) -> list[list[int]]:
        """Gates grouped by ASAP level (the time-sliced view of the circuit)."""
        levels = self.asap_levels()
        if not levels:
            return []
        grouped: list[list[int]] = [[] for _ in range(max(levels.values()) + 1)]
        for index, level in levels.items():
            grouped[level].append(index)
        return grouped

    def depth(self) -> int:
        """Number of ASAP levels (the dependence depth of the DAG)."""
        levels = self.asap_levels()
        return max(levels.values()) + 1 if levels else 0

    def _descendant_bitsets(self) -> list[int]:
        """Transitive-successor bitsets, one Python int per gate.

        Bit ``p`` of ``bitsets[pos]`` is set when the gate at position ``p``
        of :attr:`gate_indices` is a transitive successor of the gate at
        position ``pos``.  Computed on each call with reverse-topological
        propagation over position-indexed lists (``reach[pos] |=
        (1 << succ_pos) | reach[succ_pos]``) and not kept: the bitsets grow
        quadratically with the gate count, and a route reads them once.
        """
        position = self._position
        successors = self._successors
        count = len(self._gate_indices)
        succ_positions = [
            [position[succ] for succ in successors[index]]
            for index in self._gate_indices
        ]
        reach = [0] * count
        for pos in range(count - 1, -1, -1):
            bits = 0
            for succ_pos in succ_positions[pos]:
                bits |= (1 << succ_pos) | reach[succ_pos]
            reach[pos] = bits
        return reach

    def descendant_counts(self) -> dict[int, int]:
        """Number of transitive successors of every gate.

        This is the dependence weight ``omega`` of the paper: the popcount
        of each gate's descendant bitset, so that it scales to circuits with
        tens of thousands of gates.
        """
        reach = self._descendant_bitsets()
        return {
            index: reach[pos].bit_count()
            for pos, index in enumerate(self._gate_indices)
        }

    def descendants(self, index: int) -> set[int]:
        """The set of transitive successors of a single gate.

        Decoded from a fresh bitset propagation (one per call).
        """
        bits = self._descendant_bitsets()[self._position[index]]
        gate_indices = self._gate_indices
        result: set[int] = set()
        while bits:
            low = bits & -bits
            result.add(gate_indices[low.bit_length() - 1])
            bits ^= low
        return result

    def dependence_pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate the immediate dependence edges as (earlier, later) pairs."""
        for index, successors in self._successors.items():
            for succ in successors:
                yield index, succ

    def __repr__(self) -> str:
        return f"CircuitDAG(gates={self.num_nodes()}, depth={self.depth()})"
