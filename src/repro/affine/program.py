"""The lifted affine program: an ordered collection of macro-gates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.affine.statement import MacroGate
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate


@dataclass
class AffineProgram:
    """A circuit lifted into macro-gates plus the residual unlifted gates.

    The program preserves enough information to reconstruct the original
    circuit exactly (``to_circuit``).  Gates that do not fit any affine group
    of length >= 2 are kept as singleton macro-gates so that the
    representation is total.
    """

    num_qubits: int
    statements: list[MacroGate] = field(default_factory=list)
    name: str = "affine-program"

    def __iter__(self) -> Iterator[MacroGate]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    @property
    def num_gate_instances(self) -> int:
        """Total number of gate instances across all macro-gates."""
        return sum(s.trip_count for s in self.statements)

    def compression_ratio(self) -> float:
        """Gate instances per macro-gate (higher means more regular structure)."""
        if not self.statements:
            return 1.0
        return self.num_gate_instances / len(self.statements)

    def to_circuit(self) -> QuantumCircuit:
        """Reconstruct the original circuit (gates back in program order)."""
        timeline: list[tuple[int, Gate]] = []
        for statement in self.statements:
            for iteration in range(statement.trip_count):
                timeline.append(
                    (statement.instance_time(iteration), statement.instance_gate(iteration))
                )
        timeline.sort(key=lambda item: item[0])
        return QuantumCircuit(self.num_qubits, (gate for _, gate in timeline), self.name)

    def __repr__(self) -> str:
        return (
            f"AffineProgram(name={self.name!r}, qubits={self.num_qubits}, "
            f"statements={len(self.statements)}, instances={self.num_gate_instances})"
        )
