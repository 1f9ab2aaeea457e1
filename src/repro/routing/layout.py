"""Logical-to-physical qubit layouts.

A :class:`Layout` is the mapping ``phi : Q_logical -> Q_phys`` the routing
algorithms maintain.  It is a partial bijection: every logical qubit is placed
on exactly one physical qubit, while physical qubits may be unoccupied when
the device has more qubits than the circuit uses.  SWAPs are applied to
*physical* qubit pairs and exchange whatever logical states the two locations
hold (including the case where one side is empty).

Both directions of the bijection are stored as flat lists indexed by qubit
number (``phys_of[logical]`` and ``logical_at[physical]``, the latter holding
``None`` for empty locations), so lookups are O(1) list indexing and a SWAP
is four in-place element writes.  Hot loops may bind the lists directly via
:attr:`Layout.phys_of` / :attr:`Layout.logical_at` but must never resize
them.
"""

from __future__ import annotations

from typing import Mapping, Sequence


class Layout:
    """A partial bijection between logical and physical qubits."""

    __slots__ = ("_num_logical", "_num_physical", "_phys_of", "_logical_at")

    def __init__(
        self,
        num_logical: int,
        num_physical: int,
        placement: Mapping[int, int] | Sequence[int] | None = None,
    ):
        if num_logical > num_physical:
            raise ValueError(
                f"cannot place {num_logical} logical qubits on {num_physical} physical qubits"
            )
        self._num_logical = num_logical
        self._num_physical = num_physical
        if placement is None:
            placement = {q: q for q in range(num_logical)}
        elif not isinstance(placement, Mapping):
            placement = {logical: physical for logical, physical in enumerate(placement)}
        self._phys_of: list[int] = [-1] * num_logical
        self._logical_at: list[int | None] = [None] * num_physical
        for logical, physical in placement.items():
            logical, physical = int(logical), int(physical)
            if not 0 <= logical < num_logical:
                raise ValueError(f"logical qubit {logical} out of range")
            if not 0 <= physical < num_physical:
                raise ValueError(f"physical qubit {physical} out of range")
            if self._logical_at[physical] is not None:
                raise ValueError(f"physical qubit {physical} assigned twice")
            self._phys_of[logical] = physical
            self._logical_at[physical] = logical
        missing = [q for q in range(num_logical) if self._phys_of[q] < 0]
        if missing:
            raise ValueError(f"layout does not place logical qubits {missing}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def trivial(cls, num_logical: int, num_physical: int) -> "Layout":
        """The identity layout ``q_i -> p_i`` used by default in the paper."""
        return cls(num_logical, num_physical)

    def copy(self) -> "Layout":
        """An independent copy of the layout."""
        clone = Layout.__new__(Layout)
        clone._num_logical = self._num_logical
        clone._num_physical = self._num_physical
        clone._phys_of = list(self._phys_of)
        clone._logical_at = list(self._logical_at)
        return clone

    # -- accessors -------------------------------------------------------------

    @property
    def num_logical(self) -> int:
        """Number of logical qubits placed by the layout."""
        return self._num_logical

    @property
    def num_physical(self) -> int:
        """Number of physical qubits on the device."""
        return self._num_physical

    @property
    def phys_of(self) -> list[int]:
        """The logical -> physical list (hot-path view; do not resize)."""
        return self._phys_of

    @property
    def logical_at(self) -> list[int | None]:
        """The physical -> logical list, ``None`` when empty (hot-path view)."""
        return self._logical_at

    def physical(self, logical: int) -> int:
        """Physical qubit currently hosting ``logical``."""
        return self._phys_of[logical]

    def logical(self, physical: int) -> int | None:
        """Logical qubit hosted at ``physical``, or None when unoccupied."""
        return self._logical_at[physical]

    def as_dict(self) -> dict[int, int]:
        """The placement as a logical -> physical dictionary."""
        return {q: self._phys_of[q] for q in range(self._num_logical)}

    def as_list(self) -> list[int]:
        """The placement as a list indexed by logical qubit."""
        return list(self._phys_of)

    # -- mutation ----------------------------------------------------------------

    def swap_physical(self, p1: int, p2: int) -> None:
        """Apply a SWAP between two physical qubits, exchanging their contents."""
        logical_at = self._logical_at
        l1 = logical_at[p1]
        l2 = logical_at[p2]
        logical_at[p1] = l2
        logical_at[p2] = l1
        phys_of = self._phys_of
        if l1 is not None:
            phys_of[l1] = p2
        if l2 is not None:
            phys_of[l2] = p1

    def assign(self, logical: int, physical: int) -> None:
        """Move ``logical`` onto ``physical`` (which must be unoccupied)."""
        if self._logical_at[physical] is not None:
            raise ValueError(f"physical qubit {physical} already occupied")
        old = self._phys_of[logical]
        if old >= 0:
            self._logical_at[old] = None
        self._phys_of[logical] = physical
        self._logical_at[physical] = logical

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return (
            self._num_logical == other._num_logical
            and self._num_physical == other._num_physical
            and self._phys_of == other._phys_of
        )

    def __repr__(self) -> str:
        shown = min(self._num_logical, 6)
        sample = {q: self._phys_of[q] for q in range(shown)}
        suffix = ", ..." if self._num_logical > 6 else ""
        return f"Layout({sample}{suffix})"
