"""Exact point counting of bounded sets and relations.

This module stands in for the Barvinok library: the paper uses Barvinok to
count, for every gate, the number of transitive dependents.  All spaces
encountered in the mapper are bounded, so exact counting by enumeration (with
a closed-form fast path for boxes) produces the same numbers a
quasi-polynomial Barvinok evaluation would.
"""

from __future__ import annotations

from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.set_ import Set


def _box_count(basic: BasicSet) -> int | None:
    """Closed-form count for pure box constraints, or None when not a box."""
    lower: dict[str, int] = {}
    upper: dict[str, int] = {}
    for constraint in basic.constraints:
        if len(constraint.variables) != 1:
            return None
        dim = constraint.variables[0]
        coeff = constraint.expr.coefficient(dim)
        const = constraint.expr.constant
        if constraint.is_equality:
            if const % coeff != 0:
                return 0
            value = -const // coeff
            lower[dim] = max(lower.get(dim, value), value)
            upper[dim] = min(upper.get(dim, value), value)
        elif coeff > 0:
            bound = -(const // coeff)
            lower[dim] = max(lower.get(dim, bound), bound)
        else:
            bound = const // (-coeff)
            upper[dim] = min(upper.get(dim, bound), bound)
    total = 1
    for dim in basic.space.all_dims:
        if dim not in lower or dim not in upper:
            return None
        extent = upper[dim] - lower[dim] + 1
        if extent <= 0:
            return 0
        total *= extent
    return total


def card(obj: Set | BasicSet | Map) -> int:
    """Exact cardinality of a bounded set, basic set or map."""
    if isinstance(obj, BasicSet):
        box = _box_count(obj)
        if box is not None:
            return box
        return obj.count()
    if isinstance(obj, Set):
        if len(obj.pieces) == 1:
            box = _box_count(obj.pieces[0])
            if box is not None:
                return box
        return obj.count()
    if isinstance(obj, Map):
        return obj.count()
    raise TypeError(f"card() expects a Set, BasicSet or Map, got {type(obj).__name__}")


def card_map_range_per_domain(relation: Map) -> dict[tuple[int, ...], int]:
    """For each domain point, count the related range points.

    This mirrors the ``card`` of a map grouped by domain element that the
    paper computes via Barvinok to obtain the dependence weight ``omega``.
    """
    counts: dict[tuple[int, ...], int] = {}
    for source, target in relation.pairs():
        counts[source] = counts.get(source, 0) + 1
    return counts
