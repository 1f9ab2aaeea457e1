"""Macro-gates: the statements of the lifted affine representation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.affine.access import AffineAccess
from repro.circuit.gate import Gate


@dataclass
class MacroGate:
    """A group of gates sharing a gate name and affine operand progressions.

    A macro-gate plays the role of a *statement* in classical polyhedral
    compilation: its instances (the original gates) are indexed by an
    iteration variable ``i`` over ``0 <= i < trip_count``, each operand is an
    affine access ``a*i + b``, and the schedule places instance ``i`` at the
    logical time ``start + i * stride`` of the original program order.
    """

    name: str
    gate_name: str
    accesses: tuple[AffineAccess, ...]
    trip_count: int
    start_time: int
    time_stride: int
    params: tuple[float, ...] = ()

    # -- instances ----------------------------------------------------------

    def instance_qubits(self, iteration: int) -> tuple[int, ...]:
        """Qubit operands of instance ``iteration``."""
        if not 0 <= iteration < self.trip_count:
            raise IndexError(f"iteration {iteration} outside [0, {self.trip_count})")
        return tuple(access.qubit_at(iteration) for access in self.accesses)

    def instance_time(self, iteration: int) -> int:
        """Logical time-step of instance ``iteration`` in the original program."""
        return self.start_time + iteration * self.time_stride

    def instance_gate(self, iteration: int) -> Gate:
        """Reconstruct the concrete gate of instance ``iteration``."""
        return Gate(self.gate_name, self.instance_qubits(iteration), self.params)

    def gates(self) -> list[Gate]:
        """All concrete gates of the macro-gate in iteration order."""
        return [self.instance_gate(i) for i in range(self.trip_count)]

    def __len__(self) -> int:
        return self.trip_count

    def __repr__(self) -> str:
        accesses = ", ".join(repr(a) for a in self.accesses)
        return (
            f"MacroGate({self.name}: {self.gate_name} x{self.trip_count}, "
            f"accesses=[{accesses}])"
        )
