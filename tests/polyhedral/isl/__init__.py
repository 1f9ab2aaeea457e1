"""Polyhedral-lite substrate: integer sets, maps and closures.

This subpackage stands in for the Integer Set Library (ISL) and the Barvinok
counting library used by the paper.  It implements the subset of polyhedral
functionality that the Eq. 1 test oracle relies on:

* affine expressions over named dimensions (:mod:`tests.polyhedral.isl.affine`),
* Presburger-style equality / inequality constraints
  (:mod:`tests.polyhedral.isl.constraint`),
* integer sets and maps as unions of constraint-defined basic pieces
  (:mod:`tests.polyhedral.isl.set_`, :mod:`tests.polyhedral.isl.map_`),
* relation algebra -- intersection, union, composition, application,
  reversal, difference,
* transitive closure of relations (:mod:`tests.polyhedral.isl.closure`), and
* exact point counting of bounded sets (:mod:`tests.polyhedral.isl.counting`).

All sets handled by the mapper are bounded (gate-instance domains are
finite), so exact results are obtained by a mixture of symbolic constraint
manipulation and finite enumeration.  The public API mirrors the vocabulary
used by ISL (``Set``, ``Map``, ``transitive_closure``, ``card``) so code
written against this module reads like code written against ``islpy``.
"""

from tests.polyhedral.isl.affine import AffineExpr, var, const
from tests.polyhedral.isl.constraint import Constraint, eq_zero, ge_zero
from tests.polyhedral.isl.space import Space
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.closure import transitive_closure, power
from tests.polyhedral.isl.counting import card, card_map_range_per_domain

__all__ = [
    "AffineExpr",
    "var",
    "const",
    "Constraint",
    "eq_zero",
    "ge_zero",
    "Space",
    "BasicSet",
    "Set",
    "BasicMap",
    "Map",
    "transitive_closure",
    "power",
    "card",
    "card_map_range_per_domain",
]
