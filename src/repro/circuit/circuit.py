"""The :class:`QuantumCircuit` container: an ordered gate list over qubits."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.circuit.gate import Gate, SINGLE_QUBIT_GATES, TWO_QUBIT_GATES


class QuantumCircuit:
    """An ordered sequence of gates applied to ``num_qubits`` qubits.

    The circuit is the device-agnostic program representation: qubit indices
    are *logical* until a mapper assigns them to physical qubits.  Gates are
    stored in program order; the dependence structure is derived on demand by
    :class:`~repro.circuit.dag.CircuitDAG`.
    """

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = (), name: str = "circuit"):
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._gates: list[Gate] = []
        self.name = name
        for gate in gates:
            self.append(gate)

    # -- core container API --------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits the circuit is declared over."""
        return self._num_qubits

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates of the circuit in program order."""
        return tuple(self._gates)

    def append(self, gate: Gate) -> None:
        """Append a gate, validating its qubit indices."""
        for qubit in gate.qubits:
            if not 0 <= qubit < self._num_qubits:
                raise ValueError(
                    f"gate {gate!r} references qubit {qubit} outside [0, {self._num_qubits})"
                )
        self._gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        """Append several gates."""
        for gate in gates:
            self.append(gate)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """A shallow copy of the circuit (gates are immutable)."""
        return QuantumCircuit(self._num_qubits, self._gates, name or self.name)

    # -- gate builders -------------------------------------------------------

    def add_gate(self, name: str, *qubits: int, params: Sequence[float] = ()) -> None:
        """Append a gate by name and qubit operands."""
        self.append(Gate(name, tuple(qubits), tuple(params)))

    def h(self, qubit: int) -> None:
        """Append a Hadamard gate."""
        self.add_gate("h", qubit)

    def x(self, qubit: int) -> None:
        """Append a Pauli-X gate."""
        self.add_gate("x", qubit)

    def z(self, qubit: int) -> None:
        """Append a Pauli-Z gate."""
        self.add_gate("z", qubit)

    def t(self, qubit: int) -> None:
        """Append a T gate."""
        self.add_gate("t", qubit)

    def rz(self, angle: float, qubit: int) -> None:
        """Append a Z rotation."""
        self.add_gate("rz", qubit, params=(angle,))

    def rx(self, angle: float, qubit: int) -> None:
        """Append an X rotation."""
        self.add_gate("rx", qubit, params=(angle,))

    def ry(self, angle: float, qubit: int) -> None:
        """Append a Y rotation."""
        self.add_gate("ry", qubit, params=(angle,))

    def cx(self, control: int, target: int) -> None:
        """Append a CNOT gate."""
        self.add_gate("cx", control, target)

    def cz(self, control: int, target: int) -> None:
        """Append a controlled-Z gate."""
        self.add_gate("cz", control, target)

    def cp(self, angle: float, control: int, target: int) -> None:
        """Append a controlled-phase gate."""
        self.add_gate("cp", control, target, params=(angle,))

    def swap(self, a: int, b: int) -> None:
        """Append a SWAP gate."""
        self.add_gate("swap", a, b)

    def measure(self, qubit: int) -> None:
        """Append a measurement."""
        self.add_gate("measure", qubit)

    def barrier(self, *qubits: int) -> None:
        """Append a barrier over the given qubits (all qubits when empty)."""
        targets = qubits or tuple(range(self._num_qubits))
        self._gates.append(Gate("barrier", targets))

    # -- views ---------------------------------------------------------------

    def two_qubit_gates(self) -> list[Gate]:
        """All gates acting on exactly two qubits, in program order."""
        return [g for g in self._gates if g.is_two_qubit]

    def used_qubits(self) -> set[int]:
        """Indices of qubits touched by at least one gate."""
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def count_ops(self) -> Counter:
        """Gate-name histogram."""
        return Counter(g.name for g in self._gates)

    def depth(self) -> int:
        """Circuit depth: length of the longest qubit-ordered gate chain.

        Barriers synchronise all their operand qubits but do not add depth of
        their own; every other gate contributes one time step on each of its
        operand qubits.
        """
        level = [0] * self._num_qubits
        for gate in self._gates:
            if not gate.qubits:
                continue
            start = max(level[q] for q in gate.qubits)
            new_level = start if gate.is_barrier else start + 1
            for qubit in gate.qubits:
                level[qubit] = new_level
        return max(level, default=0)

    def without(self, predicate) -> "QuantumCircuit":
        """A copy of the circuit with gates matching ``predicate`` removed."""
        return QuantumCircuit(
            self._num_qubits,
            (g for g in self._gates if not predicate(g)),
            self.name,
        )

    def remapped(self, mapping: Sequence[int] | dict[int, int]) -> "QuantumCircuit":
        """A copy with all qubit indices remapped (e.g. logical -> physical)."""
        max_index = max(mapping.values()) if isinstance(mapping, dict) else max(mapping)
        size = max(self._num_qubits, max_index + 1)
        return QuantumCircuit(size, (g.remap(mapping) for g in self._gates), self.name)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._gates == other._gates

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self._num_qubits}, "
            f"gates={len(self._gates)}, depth={self.depth()})"
        )
