"""Affine qubit access relations ``q = a*i + b``.

QRANE groups gates whose operands follow a single affine progression in the
macro-gate's iteration variable ``i``.  :class:`AffineAccess` captures one
such progression.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AffineAccess:
    """The access relation ``{[i] -> [coefficient * i + offset]}``."""

    coefficient: int
    offset: int

    def qubit_at(self, iteration: int) -> int:
        """Qubit index accessed at iteration ``iteration``."""
        return self.coefficient * iteration + self.offset

    def is_constant(self) -> bool:
        """True when the access touches the same qubit at every iteration."""
        return self.coefficient == 0

    @classmethod
    def fit(cls, values: list[int]) -> "AffineAccess | None":
        """Fit an affine progression to a list of qubit indices, if one exists.

        A single value fits trivially (coefficient 0); two or more values fit
        when consecutive differences are all equal.
        """
        if not values:
            return None
        if len(values) == 1:
            return cls(0, values[0])
        step = values[1] - values[0]
        for previous, current in zip(values, values[1:]):
            if current - previous != step:
                return None
        return cls(step, values[0])

    def __repr__(self) -> str:
        if self.coefficient == 0:
            return f"{{[i] -> [{self.offset}]}}"
        if self.coefficient == 1 and self.offset == 0:
            return "{[i] -> [i]}"
        sign = "+" if self.offset >= 0 else "-"
        return f"{{[i] -> [{self.coefficient}i {sign} {abs(self.offset)}]}}"
