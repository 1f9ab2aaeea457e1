"""Basic sets: conjunctions of affine constraints over a tuple space.

A :class:`BasicSet` is the integer-point analogue of a convex polyhedron: the
set of integer tuples in a :class:`~tests.polyhedral.isl.space.Space` that satisfy every
constraint of a conjunction.  Bounded basic sets can be enumerated exactly,
which is the mechanism this library uses to provide exact results for the
operations whose general symbolic form would require a full Presburger
solver (emptiness, counting, composition of the enclosing maps, ...).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

from tests.polyhedral.isl.affine import AffineExpr
from tests.polyhedral.isl.constraint import Constraint
from tests.polyhedral.isl.space import Space


class UnboundedSetError(ValueError):
    """Raised when an operation requires a bounded set but the set is not."""


class BasicSet:
    """A conjunction of affine constraints over the dimensions of a space."""

    __slots__ = ("_space", "_constraints")

    #: Safety valve for exact enumeration; sets larger than this raise.
    MAX_ENUMERATION = 5_000_000

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()):
        self._space = space
        unique: list[Constraint] = []
        seen: set[Constraint] = set()
        for constraint in constraints:
            unknown = set(constraint.variables) - set(space.all_dims)
            if unknown:
                raise ValueError(
                    f"constraint {constraint!r} uses dimensions {sorted(unknown)} "
                    f"not present in space {space!r}"
                )
            if constraint.is_trivially_true():
                continue
            if constraint not in seen:
                seen.add(constraint)
                unique.append(constraint)
        self._constraints = tuple(unique)

    # -- constructors ------------------------------------------------------

    @classmethod
    def universe(cls, space: Space) -> "BasicSet":
        """The basic set containing every integer tuple of the space."""
        return cls(space, ())

    @classmethod
    def from_point(cls, space: Space, point: Sequence[int]) -> "BasicSet":
        """The singleton basic set ``{point}``."""
        bindings = space.bind(point)
        constraints = [
            Constraint(AffineExpr({dim: 1}, -value), is_equality=True)
            for dim, value in bindings.items()
        ]
        return cls(space, constraints)

    @classmethod
    def box(cls, space: Space, bounds: Mapping[str, tuple[int, int]]) -> "BasicSet":
        """A box ``{x : lo_d <= x_d <= hi_d}`` from per-dimension inclusive bounds."""
        constraints = []
        for dim, (lo, hi) in bounds.items():
            constraints.append(Constraint(AffineExpr({dim: 1}, -lo), is_equality=False))
            constraints.append(Constraint(AffineExpr({dim: -1}, hi), is_equality=False))
        return cls(space, constraints)

    # -- accessors ---------------------------------------------------------

    @property
    def space(self) -> Space:
        """The tuple space of the basic set."""
        return self._space

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints of the conjunction."""
        return self._constraints

    # -- membership --------------------------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        """Check whether a flat integer tuple belongs to the basic set."""
        bindings = self._space.bind(point)
        return all(c.satisfied_by(bindings) for c in self._constraints)

    # -- set algebra -------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        """Conjunction of both constraint systems (spaces must be compatible)."""
        if self._space.all_dims != other._space.all_dims:
            raise ValueError("cannot intersect basic sets over different spaces")
        return BasicSet(self._space, self._constraints + other._constraints)

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicSet":
        """Return a basic set with additional constraints conjoined."""
        return BasicSet(self._space, self._constraints + tuple(constraints))

    def rename_dims(self, mapping: Mapping[str, str], space: Space) -> "BasicSet":
        """Rename dimensions and move the constraints to ``space``."""
        return BasicSet(space, [c.rename(mapping) for c in self._constraints])

    # -- enumeration -------------------------------------------------------

    def _bounds_for(
        self, dim: str, assignment: Mapping[str, int]
    ) -> tuple[int | None, int | None, int | None]:
        """Derive (lower, upper, exact) bounds for ``dim`` under a partial assignment.

        Only constraints whose unassigned variables are exactly ``{dim}`` are
        used; others are deferred to deeper enumeration levels.
        """
        lower: int | None = None
        upper: int | None = None
        exact: int | None = None
        for constraint in self._constraints:
            unassigned = [v for v in constraint.variables if v not in assignment]
            if unassigned != [dim]:
                continue
            coeff = constraint.expr.coefficient(dim)
            rest = constraint.expr.constant
            for name, c in constraint.expr.coeffs.items():
                if name != dim:
                    rest += c * assignment[name]
            # constraint: coeff * dim + rest (==|>=) 0
            if constraint.is_equality:
                if rest % coeff != 0:
                    return 1, 0, None  # empty range
                value = -rest // coeff
                if exact is not None and exact != value:
                    return 1, 0, None
                exact = value
            elif coeff > 0:
                bound = math.ceil(-rest / coeff)
                lower = bound if lower is None else max(lower, bound)
            else:
                bound = math.floor(rest / -coeff)
                upper = bound if upper is None else min(upper, bound)
        if exact is not None:
            return exact, exact, exact
        return lower, upper, None

    def _check_closed(self, assignment: Mapping[str, int]) -> bool:
        """Check constraints whose variables are fully assigned."""
        for constraint in self._constraints:
            if all(v in assignment for v in constraint.variables):
                if not constraint.satisfied_by(assignment):
                    return False
        return True

    def points(self) -> Iterator[tuple[int, ...]]:
        """Enumerate all integer points of the basic set.

        Dimensions are assigned in an order chosen dynamically: at each level
        the enumerator picks a not-yet-assigned dimension whose bounds are
        derivable from the constraints given the current partial assignment
        (so ``{[i, j] : j = i + 1, 0 <= i <= 2}`` works regardless of the
        declared dimension order).  Raises :class:`UnboundedSetError` when no
        remaining dimension can be bounded.
        """
        if any(c.is_trivially_false() for c in self._constraints):
            return
        dims = self._space.all_dims
        yield from self._enumerate(dims, {}, [0])

    def _enumerate(
        self,
        dims: tuple[str, ...],
        assignment: dict[str, int],
        counter: list[int],
    ) -> Iterator[tuple[int, ...]]:
        remaining = [d for d in dims if d not in assignment]
        if not remaining:
            if self._check_closed(assignment):
                yield tuple(assignment[d] for d in dims)
            return
        if not self._check_closed(assignment):
            return
        dim = None
        lower = upper = None
        for candidate in remaining:
            lo, hi, _ = self._bounds_for(candidate, assignment)
            if lo is not None and hi is not None:
                dim, lower, upper = candidate, lo, hi
                break
        if dim is None:
            raise UnboundedSetError(
                f"no remaining dimension of {self!r} is bounded under assignment {assignment}"
            )
        for value in range(lower, upper + 1):
            counter[0] += 1
            if counter[0] > self.MAX_ENUMERATION:
                raise UnboundedSetError(
                    f"enumeration of {self!r} exceeded {self.MAX_ENUMERATION} candidates"
                )
            assignment[dim] = value
            yield from self._enumerate(dims, assignment, counter)
        assignment.pop(dim, None)

    def is_empty(self) -> bool:
        """Exact emptiness check (by bounded enumeration)."""
        for constraint in self._constraints:
            if constraint.is_trivially_false():
                return True
        for _ in self.points():
            return False
        return True

    def count(self) -> int:
        """Exact number of integer points in the (bounded) basic set."""
        return sum(1 for _ in self.points())

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self._space == other._space and set(self._constraints) == set(other._constraints)

    def __hash__(self) -> int:
        return hash((self._space, frozenset(self._constraints)))

    def __repr__(self) -> str:
        dims = ", ".join(self._space.all_dims)
        body = " and ".join(repr(c) for c in self._constraints) or "true"
        return f"{{ [{dims}] : {body} }}"
