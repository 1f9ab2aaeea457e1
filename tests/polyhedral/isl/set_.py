"""Integer sets: unions of basic sets.

A :class:`Set` is a finite union of :class:`~tests.polyhedral.isl.basic_set.BasicSet`
pieces over a common tuple space.  Operations that are symbolic in ISL but
require a Presburger solver in general (difference, equality, counting) are
computed exactly by enumeration, which is always possible for the bounded
domains handled by the mapper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.space import Space


class Set:
    """A union of basic sets over a single tuple space."""

    __slots__ = ("_space", "_pieces")

    def __init__(self, space: Space, pieces: Iterable[BasicSet] = ()):
        self._space = space
        self._pieces = tuple(p for p in pieces)
        for piece in self._pieces:
            if piece.space.all_dims != space.all_dims:
                raise ValueError("all pieces of a Set must share the space dimensions")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, space: Space) -> "Set":
        """The empty set over ``space``."""
        return cls(space, ())

    @classmethod
    def universe(cls, space: Space) -> "Set":
        """The set of all integer tuples of ``space`` (unbounded)."""
        return cls(space, (BasicSet.universe(space),))

    @classmethod
    def from_basic(cls, basic: BasicSet) -> "Set":
        """Wrap a single basic set."""
        return cls(basic.space, (basic,))

    @classmethod
    def from_points(cls, space: Space, points: Iterable[Sequence[int]]) -> "Set":
        """Build a set as the union of singleton basic sets (exact, finite)."""
        pieces = [BasicSet.from_point(space, tuple(p)) for p in dict.fromkeys(map(tuple, points))]
        return cls(space, pieces)

    @classmethod
    def box(cls, space: Space, bounds: Mapping[str, tuple[int, int]]) -> "Set":
        """Build a box set from per-dimension inclusive bounds."""
        return cls.from_basic(BasicSet.box(space, bounds))

    # -- accessors ---------------------------------------------------------

    @property
    def space(self) -> Space:
        """The tuple space of the set."""
        return self._space

    @property
    def pieces(self) -> tuple[BasicSet, ...]:
        """The basic-set pieces whose union forms this set."""
        return self._pieces

    # -- membership and enumeration ----------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        """True when ``point`` belongs to any piece."""
        return any(piece.contains(point) for piece in self._pieces)

    def points(self) -> Iterator[tuple[int, ...]]:
        """Enumerate the distinct integer points of the set."""
        seen: set[tuple[int, ...]] = set()
        for piece in self._pieces:
            for point in piece.points():
                if point not in seen:
                    seen.add(point)
                    yield point

    def point_set(self) -> frozenset[tuple[int, ...]]:
        """All points of the set as a frozenset."""
        return frozenset(self.points())

    def is_empty(self) -> bool:
        """Exact emptiness check."""
        return all(piece.is_empty() for piece in self._pieces)

    def count(self) -> int:
        """Exact number of integer points (requires a bounded set)."""
        return len(self.point_set())

    # -- set algebra -------------------------------------------------------

    def union(self, other: "Set") -> "Set":
        """Union of two sets over compatible spaces."""
        self._check_compatible(other)
        return Set(self._space, self._pieces + other._pieces)

    def intersect(self, other: "Set") -> "Set":
        """Pairwise intersection of the pieces of both sets."""
        self._check_compatible(other)
        pieces = [a.intersect(b) for a in self._pieces for b in other._pieces]
        return Set(self._space, pieces)

    def subtract(self, other: "Set") -> "Set":
        """Exact difference, computed on enumerated points."""
        self._check_compatible(other)
        removed = other.point_set()
        kept = [p for p in self.points() if p not in removed]
        return Set.from_points(self._space, kept)

    def coalesce(self) -> "Set":
        """Drop empty pieces (a light-weight analogue of ISL's coalesce)."""
        return Set(self._space, [p for p in self._pieces if not p.is_empty()])

    def is_subset(self, other: "Set") -> bool:
        """Exact subset test by enumeration."""
        return all(other.contains(p) for p in self.points())

    def is_equal(self, other: "Set") -> bool:
        """Exact equality test by enumeration."""
        return self.point_set() == other.point_set()

    # -- helpers -----------------------------------------------------------

    def _check_compatible(self, other: "Set") -> None:
        if self._space.all_dims != other._space.all_dims:
            raise ValueError(
                f"incompatible set spaces: {self._space!r} vs {other._space!r}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return self.is_equal(other)

    def __repr__(self) -> str:
        if not self._pieces:
            dims = ", ".join(self._space.all_dims)
            return f"{{ [{dims}] : false }}"
        return " union ".join(repr(p) for p in self._pieces)
