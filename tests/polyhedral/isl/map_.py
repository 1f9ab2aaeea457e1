"""Integer maps: unions of basic maps with an explicit-pair fast path.

A :class:`Map` is a finite union of :class:`~tests.polyhedral.isl.basic_map.BasicMap`
pieces, optionally augmented with an explicit set of (input, output) pairs.
The explicit representation is the work-horse for large but finite relations
such as circuit dependence graphs: operations like composition, application
and transitive closure are exact on explicit pairs without requiring a
general Presburger projection step.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.space import Space

Pair = tuple[tuple[int, ...], tuple[int, ...]]


class Map:
    """A union of basic maps and/or explicit pairs over a single map space."""

    __slots__ = ("_space", "_pieces", "_explicit")

    def __init__(
        self,
        space: Space,
        pieces: Iterable[BasicMap] = (),
        explicit: Iterable[Pair] = (),
    ):
        if not space.is_map:
            raise ValueError("Map requires a map space")
        self._space = space
        self._pieces = tuple(pieces)
        self._explicit = frozenset(
            (tuple(a), tuple(b)) for a, b in explicit
        )
        for piece in self._pieces:
            if piece.space.all_dims != space.all_dims:
                raise ValueError("all pieces of a Map must share the space dimensions")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, space: Space) -> "Map":
        """The empty relation."""
        return cls(space)

    @classmethod
    def from_basic(cls, basic: BasicMap) -> "Map":
        """Wrap a single basic map."""
        return cls(basic.space, (basic,))

    @classmethod
    def from_pairs(cls, space: Space, pairs: Iterable[Pair]) -> "Map":
        """Build an explicit relation from (input tuple, output tuple) pairs."""
        return cls(space, (), pairs)

    @classmethod
    def identity(cls, space: Space, domain: Set | None = None) -> "Map":
        """The identity relation, optionally restricted to ``domain``."""
        basic = BasicMap.translation(space, (0,) * space.n_in)
        result = cls.from_basic(basic)
        if domain is not None:
            result = result.intersect_domain(domain)
        return result

    # -- accessors ---------------------------------------------------------

    @property
    def space(self) -> Space:
        """The map space."""
        return self._space

    @property
    def pieces(self) -> tuple[BasicMap, ...]:
        """Constraint-defined pieces of the relation."""
        return self._pieces

    @property
    def explicit_pairs(self) -> frozenset[Pair]:
        """Explicitly stored (input, output) pairs of the relation."""
        return self._explicit

    # -- enumeration and queries -------------------------------------------

    def pairs(self) -> Iterator[Pair]:
        """Enumerate all distinct pairs of the relation (bounded maps only)."""
        seen: set[Pair] = set()
        for pair in self._explicit:
            if pair not in seen:
                seen.add(pair)
                yield pair
        for piece in self._pieces:
            for pair in piece.pairs():
                if pair not in seen:
                    seen.add(pair)
                    yield pair

    def pair_set(self) -> frozenset[Pair]:
        """All pairs of the relation as a frozenset."""
        return frozenset(self.pairs())

    def contains_pair(self, in_point: Sequence[int], out_point: Sequence[int]) -> bool:
        """True when ``in_point -> out_point`` belongs to the relation."""
        pair = (tuple(in_point), tuple(out_point))
        if pair in self._explicit:
            return True
        return any(p.contains_pair(*pair) for p in self._pieces)

    def is_empty(self) -> bool:
        """Exact emptiness check."""
        if self._explicit:
            return False
        return all(p.is_empty() for p in self._pieces)

    def count(self) -> int:
        """Exact number of pairs (bounded maps only)."""
        return len(self.pair_set())

    # -- domain / range ----------------------------------------------------

    def domain(self) -> Set:
        """The set of input tuples related to at least one output tuple."""
        return Set.from_points(
            self._space.domain_space(), (a for a, _ in self.pairs())
        )

    def range(self) -> Set:
        """The set of output tuples related to at least one input tuple."""
        return Set.from_points(
            self._space.range_space(), (b for _, b in self.pairs())
        )

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Map") -> "Map":
        """Union of two relations over compatible spaces."""
        self._check_compatible(other)
        return Map(
            self._space,
            self._pieces + other._pieces,
            self._explicit | other._explicit,
        )

    def intersect(self, other: "Map") -> "Map":
        """Exact intersection (explicit pairs are filtered, pieces conjoined)."""
        self._check_compatible(other)
        explicit = {p for p in self._explicit if other.contains_pair(*p)}
        explicit |= {p for p in other._explicit if self.contains_pair(*p)}
        pieces = [a.intersect(b) for a in self._pieces for b in other._pieces]
        return Map(self._space, pieces, explicit)

    def subtract(self, other: "Map") -> "Map":
        """Exact difference, computed on enumerated pairs."""
        self._check_compatible(other)
        removed = other.pair_set()
        return Map.from_pairs(self._space, (p for p in self.pairs() if p not in removed))

    def reverse(self) -> "Map":
        """The inverse relation."""
        pieces = [p.reverse() for p in self._pieces]
        explicit = [(b, a) for a, b in self._explicit]
        return Map(self._space.reversed(), pieces, explicit)

    def intersect_domain(self, domain: Set) -> "Map":
        """Restrict the relation to input tuples in ``domain``."""
        pieces = []
        for piece in self._pieces:
            for dpiece in domain.pieces:
                pieces.append(piece.intersect_domain(dpiece))
        explicit = [p for p in self._explicit if domain.contains(p[0])]
        return Map(self._space, pieces, explicit)

    def intersect_range(self, rng: Set) -> "Map":
        """Restrict the relation to output tuples in ``rng``."""
        pieces = []
        for piece in self._pieces:
            for rpiece in rng.pieces:
                pieces.append(piece.intersect_range(rpiece))
        explicit = [p for p in self._explicit if rng.contains(p[1])]
        return Map(self._space, pieces, explicit)

    def apply(self, points: Set) -> Set:
        """Image of ``points`` under the relation (ISL's ``set.apply(map)``)."""
        source = points.point_set()
        image = [b for a, b in self.pairs() if a in source]
        return Set.from_points(self._space.range_space(), image)

    def compose(self, other: "Map") -> "Map":
        """Relation composition ``other after self``: ``{x -> z : x->y in self, y->z in other}``."""
        if self._space.n_out != other._space.n_in:
            raise ValueError("arity mismatch in map composition")
        by_source: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
        for a, b in other.pairs():
            by_source[a].append(b)
        space = Space.map_space(self._space.in_dims, other._space.out_dims, self._space.name)
        pairs = [
            (a, c)
            for a, b in self.pairs()
            for c in by_source.get(b, ())
        ]
        return Map.from_pairs(space, pairs)

    def apply_range(self, other: "Map") -> "Map":
        """Alias for :meth:`compose` using ISL's ``apply_range`` naming."""
        return self.compose(other)

    # -- structure ---------------------------------------------------------

    def successors(self, in_point: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """All output tuples related to ``in_point``."""
        key = tuple(in_point)
        return frozenset(b for a, b in self.pairs() if a == key)

    def as_adjacency(self) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
        """The relation as an adjacency dictionary (for graph algorithms)."""
        adjacency: dict[tuple[int, ...], set[tuple[int, ...]]] = defaultdict(set)
        for a, b in self.pairs():
            adjacency[a].add(b)
        return dict(adjacency)

    def is_equal(self, other: "Map") -> bool:
        """Exact equality test by enumeration."""
        return self.pair_set() == other.pair_set()

    # -- helpers -----------------------------------------------------------

    def _check_compatible(self, other: "Map") -> None:
        if self._space.all_dims != other._space.all_dims:
            raise ValueError(
                f"incompatible map spaces: {self._space!r} vs {other._space!r}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Map):
            return NotImplemented
        return self.is_equal(other)

    def __repr__(self) -> str:
        parts = [repr(p) for p in self._pieces]
        if self._explicit:
            sample = sorted(self._explicit)[:4]
            rendered = ", ".join(f"{list(a)} -> {list(b)}" for a, b in sample)
            suffix = ", ..." if len(self._explicit) > 4 else ""
            parts.append(f"{{ {rendered}{suffix} }}")
        if not parts:
            return "{ }"
        return " union ".join(parts)
