"""Polyhedral views of the lifted affine IR.

``repro.affine`` keeps the lifting itself (macro-gates with affine accesses
``a*i + b`` and a schedule ``start + i * stride``) as plain integers.  These
functions express one access or one macro-gate as the integer sets and maps
of :mod:`tests.polyhedral.isl`, the form the paper's dependence analysis
reads, so the tests can check the lifting against the polyhedral model.
"""

from __future__ import annotations

from repro.affine.access import AffineAccess
from repro.affine.statement import MacroGate
from tests.polyhedral.isl.affine import AffineExpr
from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.constraint import Constraint
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.space import Space


def access_map(
    access: AffineAccess, trip_count: int, iterator: str = "i", qubit_dim: str = "q"
) -> Map:
    """The access as a polyhedral map over the domain ``0 <= i < trip_count``."""
    space = Space.map_space((iterator,), (qubit_dim,))
    domain = BasicSet.box(Space.set_space((iterator,)), {iterator: (0, trip_count - 1)})
    expr = AffineExpr({qubit_dim: 1, iterator: -access.coefficient}, -access.offset)
    constraints = [Constraint(expr, is_equality=True), *domain.constraints]
    return Map.from_basic(BasicMap(space, constraints))


def iteration_domain(macro: MacroGate) -> Set:
    """The iteration domain ``{[i] : 0 <= i < trip_count}``."""
    space = Space.set_space(("i",), macro.name)
    return Set.from_basic(BasicSet.box(space, {"i": (0, macro.trip_count - 1)}))


def access_maps(macro: MacroGate) -> tuple[Map, ...]:
    """Per-operand access relations as polyhedral maps."""
    return tuple(access_map(access, macro.trip_count) for access in macro.accesses)


def schedule_map(macro: MacroGate) -> Map:
    """The schedule ``{[i] -> [start_time + i * time_stride]}``."""
    space = Space.map_space(("i",), ("t",), macro.name)
    domain = BasicSet.box(Space.set_space(("i",)), {"i": (0, macro.trip_count - 1)})
    constraints = [
        Constraint(
            AffineExpr({"t": 1, "i": -macro.time_stride}, -macro.start_time),
            is_equality=True,
        ),
        *domain.constraints,
    ]
    return Map.from_basic(BasicMap(space, constraints))
