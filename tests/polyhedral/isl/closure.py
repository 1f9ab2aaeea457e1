"""Transitive closure and powers of integer relations.

The transitive closure ``R+ = R union R^2 union R^3 union ...`` is the key
operation the paper uses to count, for every gate, how many later gates are
(directly or indirectly) reachable through dependences.

Two strategies are provided:

* a **symbolic** fast path for single-piece uniform translation maps
  ``{x -> x + k : x in D}`` whose closure is itself affine, and
* an **exact finite fixpoint** for bounded relations, computed on the
  explicit pair representation (a graph-reachability computation).

Both return ordinary :class:`~tests.polyhedral.isl.map_.Map` objects, so downstream code
does not need to know which strategy was used.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

from tests.polyhedral.isl.affine import AffineExpr
from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.constraint import Constraint
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.space import Space


def power(relation: Map, exponent: int) -> Map:
    """The ``exponent``-fold composition ``R^k`` of a bounded relation."""
    if exponent < 1:
        raise ValueError("power() requires exponent >= 1")
    result = relation
    for _ in range(exponent - 1):
        result = result.compose(relation)
    return result


def _symbolic_translation_closure(relation: Map) -> Map | None:
    """Closure of a one-dimensional uniform translation map, when applicable.

    For ``R = {[i] -> [i + k] : lo <= i <= hi}`` with ``k > 0`` the closure is
    ``{[i] -> [j] : j = i + k*e, e >= 1, lo <= i <= hi, lo <= j <= hi + k}``
    restricted so every intermediate step stays in the domain; for ``k = 1``
    this is exactly ``{[i] -> [j] : i < j}`` clipped to the chain.  We only
    take the fast path for the common stride cases used in tests and in the
    lifted schedules (1-D translation by a positive constant).
    """
    if relation.explicit_pairs or len(relation.pieces) != 1:
        return None
    piece = relation.pieces[0]
    if piece.space.n_in != 1 or piece.space.n_out != 1:
        return None
    offsets = piece.as_translation()
    if offsets is None or offsets[0] <= 0:
        return None
    stride = offsets[0]
    in_dim = piece.space.in_dims[0]
    out_dim = piece.space.out_dims[0]
    # Extract simple lower/upper bounds on the input dimension.
    lower = None
    upper = None
    for constraint in piece.constraints:
        if constraint.is_equality:
            continue
        if constraint.variables != (in_dim,):
            continue
        coeff = constraint.expr.coefficient(in_dim)
        const = constraint.expr.constant
        if coeff > 0:
            # coeff*i + const >= 0  ->  i >= ceil(-const/coeff)
            bound = -(const // coeff)
            lower = bound if lower is None else max(lower, bound)
        else:
            # coeff*i + const >= 0 with coeff < 0  ->  i <= floor(const/-coeff)
            bound = const // (-coeff)
            upper = bound if upper is None else min(upper, bound)
    if lower is None or upper is None:
        return None
    if stride == 1:
        constraints = [
            Constraint(AffineExpr({out_dim: 1, in_dim: -1}, -1), is_equality=False),
            Constraint(AffineExpr({in_dim: 1}, -lower), is_equality=False),
            Constraint(AffineExpr({in_dim: -1}, upper), is_equality=False),
            Constraint(AffineExpr({out_dim: 1}, -lower - 1), is_equality=False),
            Constraint(AffineExpr({out_dim: -1}, upper + 1), is_equality=False),
        ]
        return Map.from_basic(BasicMap(piece.space, constraints))
    # General positive stride: fall back to the exact finite computation.
    return None


def transitive_closure(relation: Map) -> Map:
    """Compute the transitive closure ``R+`` of a relation.

    The result relates every point to every point reachable through one or
    more steps of ``relation``.  For bounded relations the computation is
    exact (ISL's closure may over-approximate; this one never does).
    """
    symbolic = _symbolic_translation_closure(relation)
    if symbolic is not None:
        return symbolic

    adjacency = relation.as_adjacency()
    closure_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    reach_cache: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}

    order = _reverse_topological_order(adjacency)
    if order is not None:
        # DAG: descendants(v) = union of {s} + descendants(s) over successors s.
        for node in order:
            reachable: set[tuple[int, ...]] = set()
            for succ in adjacency.get(node, ()):
                reachable.add(succ)
                reachable |= reach_cache.get(succ, frozenset())
            reach_cache[node] = frozenset(reachable)
        for node, reachable in reach_cache.items():
            closure_pairs.extend((node, target) for target in reachable)
        return Map.from_pairs(relation.space, closure_pairs)

    # Cyclic relation: BFS from every source node.
    for source in adjacency:
        visited: set[tuple[int, ...]] = set()
        queue = deque(adjacency.get(source, ()))
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            queue.extend(adjacency.get(node, ()))
        closure_pairs.extend((source, target) for target in visited)
    return Map.from_pairs(relation.space, closure_pairs)


def reachable_counts(relation: Map) -> dict[tuple[int, ...], int]:
    """Number of points reachable (in >= 1 step) from every domain point.

    This is the quantity the paper calls the *dependence weight* ``omega``;
    computing the counts directly avoids materialising the full closure when
    only cardinalities are needed.
    """
    adjacency = relation.as_adjacency()
    order = _reverse_topological_order(adjacency)
    counts: dict[tuple[int, ...], int] = {}
    if order is not None:
        node_index: dict[tuple[int, ...], int] = {}
        reach_bits: dict[tuple[int, ...], int] = {}
        for node in order:
            bits = 0
            for succ in adjacency.get(node, ()):
                if succ not in node_index:
                    node_index[succ] = len(node_index)
                bits |= 1 << node_index[succ]
                bits |= reach_bits.get(succ, 0)
            reach_bits[node] = bits
            counts[node] = bits.bit_count()
        return counts
    closure = transitive_closure(relation)
    for source in relation.domain().points():
        counts[source] = len(closure.successors(source))
    return counts


def _reverse_topological_order(
    adjacency: dict[tuple[int, ...], set[tuple[int, ...]]],
) -> list[tuple[int, ...]] | None:
    """Reverse topological order of the relation graph, or None when cyclic."""
    nodes: set[tuple[int, ...]] = set(adjacency)
    for targets in adjacency.values():
        nodes |= targets
    in_degree: dict[tuple[int, ...], int] = {node: 0 for node in nodes}
    for targets in adjacency.values():
        for target in targets:
            in_degree[target] += 1
    queue = deque(node for node, degree in in_degree.items() if degree == 0)
    order: list[tuple[int, ...]] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for target in adjacency.get(node, ()):
            in_degree[target] -= 1
            if in_degree[target] == 0:
                queue.append(target)
    if len(order) != len(nodes):
        return None
    order.reverse()
    return order
