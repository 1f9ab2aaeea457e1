"""SABRE-style qubit decay values with O(1) bulk reset.

Both SABRE and Qlosure multiply a candidate SWAP's cost by
``max(decay_q1, decay_q2)`` and reset *all* decay values to 1 whenever a
two-qubit gate executes.  An eager reset costs O(num_qubits) per executed
gate, which dominates routing on easy circuits where nearly every gate
executes without SWAPs.  :class:`DecayTable` makes the reset lazy: a
generation counter is bumped instead, and entries written under an older
generation read as the neutral value 1.0.  The routing engine keeps one per
route (``RoutingState.decay``), bumps it on every SWAP and resets it on every
executed two-qubit gate.

The table satisfies the read-only ``Mapping``-style ``get`` contract the
window scorer expects, so it can be passed anywhere a ``{qubit: decay}``
dictionary was.
"""

from __future__ import annotations


class DecayTable:
    """Per-logical-qubit decay factors with generation-counter bulk reset."""

    __slots__ = ("increment", "_values", "_marks", "_generation")

    def __init__(self, num_qubits: int, increment: float = 0.001):
        self.increment = increment
        self._values = [1.0] * num_qubits
        self._marks = [0] * num_qubits
        self._generation = 0

    def reset_all(self) -> None:
        """Reset every decay value to 1.0 (O(1): bumps the generation)."""
        self._generation += 1

    def get(self, qubit: int | None, default: float = 1.0) -> float:
        """Current decay of ``qubit``; ``default`` applies only to ``None``.

        A real qubit always reads its decay value -- 1.0 (the reset-neutral
        value) when it has not been bumped since the last reset -- mirroring
        the eager dict that held an entry for every qubit.
        """
        if qubit is None:
            return default
        if self._marks[qubit] != self._generation:
            return 1.0
        return self._values[qubit]

    def bump(self, qubit: int) -> None:
        """Add the configured increment to ``qubit``'s decay."""
        generation = self._generation
        if self._marks[qubit] != generation:
            self._values[qubit] = 1.0 + self.increment
            self._marks[qubit] = generation
        else:
            self._values[qubit] += self.increment

    def __repr__(self) -> str:
        live = {
            qubit: value
            for qubit, (value, mark) in enumerate(zip(self._values, self._marks))
            if mark == self._generation and value != 1.0
        }
        return f"DecayTable(increment={self.increment}, active={live})"
