"""Basic maps: affine relations between an input and an output tuple.

A :class:`BasicMap` relates points of an input tuple space to points of an
output tuple space through a conjunction of affine constraints over the
combined dimensions -- exactly like an ISL ``basic_map``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from tests.polyhedral.isl.affine import AffineExpr
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.constraint import Constraint
from tests.polyhedral.isl.space import Space


class BasicMap:
    """A conjunction of affine constraints over ``in_dims + out_dims``."""

    __slots__ = ("_space", "_wrapped")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()):
        if not space.is_map:
            raise ValueError("BasicMap requires a map space")
        self._space = space
        self._wrapped = BasicSet(space, constraints)

    # -- constructors ------------------------------------------------------

    @classmethod
    def universe(cls, space: Space) -> "BasicMap":
        """The basic map relating every input tuple to every output tuple."""
        return cls(space, ())

    @classmethod
    def from_pair(
        cls, space: Space, in_point: Sequence[int], out_point: Sequence[int]
    ) -> "BasicMap":
        """The singleton basic map ``{in_point -> out_point}``."""
        flat = tuple(in_point) + tuple(out_point)
        bindings = space.bind(flat)
        constraints = [
            Constraint(AffineExpr({dim: 1}, -value), is_equality=True)
            for dim, value in bindings.items()
        ]
        return cls(space, constraints)

    @classmethod
    def translation(
        cls,
        space: Space,
        offsets: Sequence[int],
        domain: BasicSet | None = None,
    ) -> "BasicMap":
        """The uniform translation map ``{x -> x + offsets : x in domain}``."""
        if space.n_in != space.n_out or len(offsets) != space.n_in:
            raise ValueError("translation requires equal input/output arity")
        constraints: list[Constraint] = []
        for in_dim, out_dim, offset in zip(space.in_dims, space.out_dims, offsets):
            expr = AffineExpr({out_dim: 1, in_dim: -1}, -int(offset))
            constraints.append(Constraint(expr, is_equality=True))
        if domain is not None:
            rename = dict(zip(domain.space.all_dims, space.in_dims))
            for constraint in domain.constraints:
                constraints.append(constraint.rename(rename))
        return cls(space, constraints)

    # -- accessors ---------------------------------------------------------

    @property
    def space(self) -> Space:
        """The map space (input and output dimension names)."""
        return self._space

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints defining the relation."""
        return self._wrapped.constraints

    def wrap(self) -> BasicSet:
        """View the relation as a basic set over the combined dimensions."""
        return self._wrapped

    # -- queries -----------------------------------------------------------

    def contains_pair(self, in_point: Sequence[int], out_point: Sequence[int]) -> bool:
        """True when ``in_point -> out_point`` belongs to the relation."""
        return self._wrapped.contains(tuple(in_point) + tuple(out_point))

    def pairs(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Enumerate (input tuple, output tuple) pairs (bounded maps only)."""
        for point in self._wrapped.points():
            yield self._space.split_point(point)

    def is_empty(self) -> bool:
        """Exact emptiness check."""
        return self._wrapped.is_empty()

    def count(self) -> int:
        """Exact number of pairs in the (bounded) relation."""
        return self._wrapped.count()

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "BasicMap") -> "BasicMap":
        """Conjunction of both constraint systems."""
        if self._space.all_dims != other._space.all_dims:
            raise ValueError("cannot intersect basic maps over different spaces")
        return BasicMap(self._space, self.constraints + other.constraints)

    def intersect_domain(self, domain: BasicSet) -> "BasicMap":
        """Restrict the relation to input tuples in ``domain``."""
        rename = dict(zip(domain.space.all_dims, self._space.in_dims))
        extra = [c.rename(rename) for c in domain.constraints]
        return BasicMap(self._space, self.constraints + tuple(extra))

    def intersect_range(self, rng: BasicSet) -> "BasicMap":
        """Restrict the relation to output tuples in ``rng``."""
        rename = dict(zip(rng.space.all_dims, self._space.out_dims))
        extra = [c.rename(rename) for c in rng.constraints]
        return BasicMap(self._space, self.constraints + tuple(extra))

    def reverse(self) -> "BasicMap":
        """The inverse relation (input and output tuples exchanged)."""
        reversed_space = self._space.reversed()
        return BasicMap(reversed_space, self.constraints)

    def rename_dims(self, mapping: Mapping[str, str], space: Space) -> "BasicMap":
        """Rename dimensions and move the constraints to ``space``."""
        return BasicMap(space, [c.rename(mapping) for c in self.constraints])

    # -- structural analysis -----------------------------------------------

    def as_translation(self) -> tuple[int, ...] | None:
        """Return the offset vector when the map is a pure uniform translation.

        A map is a uniform translation when every output dimension is
        constrained to ``out_i == in_i + k_i`` by an equality and no other
        constraint mentions output dimensions.  Returns ``None`` otherwise.
        """
        if self._space.n_in != self._space.n_out:
            return None
        offsets: dict[str, int] = {}
        for constraint in self.constraints:
            out_vars = [v for v in constraint.variables if v in self._space.out_dims]
            if not out_vars:
                continue
            if not constraint.is_equality or len(out_vars) != 1:
                return None
            out_dim = out_vars[0]
            index = self._space.out_dims.index(out_dim)
            in_dim = self._space.in_dims[index]
            expr = constraint.expr
            # Expect expr == +-(out - in - k)
            coeff_out = expr.coefficient(out_dim)
            coeff_in = expr.coefficient(in_dim)
            others = [
                v
                for v in expr.variables
                if v not in (out_dim, in_dim)
            ]
            if others or coeff_out == 0 or coeff_in != -coeff_out:
                return None
            offset = -expr.constant // coeff_out
            if expr.constant % coeff_out != 0:
                return None
            if out_dim in offsets and offsets[out_dim] != offset:
                return None
            offsets[out_dim] = offset
        if len(offsets) != self._space.n_out:
            return None
        return tuple(offsets[d] for d in self._space.out_dims)

    def __repr__(self) -> str:
        in_dims = ", ".join(self._space.in_dims)
        out_dims = ", ".join(self._space.out_dims)
        body = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"{{ [{in_dims}] -> [{out_dims}] : {body} }}"
