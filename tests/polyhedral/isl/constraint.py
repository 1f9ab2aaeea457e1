"""Presburger-style affine constraints.

A :class:`Constraint` is either an equality ``expr == 0`` or an inequality
``expr >= 0`` where ``expr`` is an :class:`~tests.polyhedral.isl.affine.AffineExpr`.
Conjunctions of constraints define basic sets and basic maps.
"""

from __future__ import annotations

from typing import Mapping

from tests.polyhedral.isl.affine import AffineExpr


class Constraint:
    """A single affine constraint: ``expr == 0`` or ``expr >= 0``."""

    __slots__ = ("_expr", "_is_equality")

    def __init__(self, expr: AffineExpr, is_equality: bool):
        if not isinstance(expr, AffineExpr):
            raise TypeError("Constraint expects an AffineExpr")
        self._expr = expr
        self._is_equality = bool(is_equality)

    @property
    def expr(self) -> AffineExpr:
        """The left-hand-side affine expression of the constraint."""
        return self._expr

    @property
    def is_equality(self) -> bool:
        """True for ``expr == 0``, False for ``expr >= 0``."""
        return self._is_equality

    @property
    def variables(self) -> tuple[str, ...]:
        """Dimensions referenced by the constraint."""
        return self._expr.variables

    def satisfied_by(self, point: Mapping[str, int]) -> bool:
        """Check whether a point (dim-name -> value mapping) satisfies the constraint."""
        value = self._expr.evaluate(point)
        return value == 0 if self._is_equality else value >= 0

    def is_trivially_true(self) -> bool:
        """True when the constraint holds for every point (no variables, satisfied)."""
        if not self._expr.is_constant():
            return False
        value = self._expr.constant
        return value == 0 if self._is_equality else value >= 0

    def is_trivially_false(self) -> bool:
        """True when the constraint can never hold (no variables, violated)."""
        if not self._expr.is_constant():
            return False
        value = self._expr.constant
        return value != 0 if self._is_equality else value < 0

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        """Rename constraint dimensions."""
        return Constraint(self._expr.rename(mapping), self._is_equality)

    def substitute(self, bindings: Mapping[str, AffineExpr | int]) -> "Constraint":
        """Substitute dimensions by affine expressions."""
        return Constraint(self._expr.substitute(bindings), self._is_equality)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._expr == other._expr and self._is_equality == other._is_equality

    def __hash__(self) -> int:
        return hash((self._expr, self._is_equality))

    def __repr__(self) -> str:
        op = "=" if self._is_equality else ">="
        return f"{self._expr} {op} 0"


def eq_zero(expr: AffineExpr) -> Constraint:
    """Build the equality constraint ``expr == 0``."""
    return Constraint(expr, is_equality=True)


def ge_zero(expr: AffineExpr) -> Constraint:
    """Build the inequality constraint ``expr >= 0``."""
    return Constraint(expr, is_equality=False)


def le(lhs: AffineExpr, rhs: AffineExpr | int) -> Constraint:
    """Build ``lhs <= rhs`` as an inequality constraint."""
    if isinstance(rhs, int):
        rhs = AffineExpr(constant=rhs)
    return ge_zero(rhs - lhs)


def ge(lhs: AffineExpr, rhs: AffineExpr | int) -> Constraint:
    """Build ``lhs >= rhs`` as an inequality constraint."""
    if isinstance(rhs, int):
        rhs = AffineExpr(constant=rhs)
    return ge_zero(lhs - rhs)


def eq(lhs: AffineExpr, rhs: AffineExpr | int) -> Constraint:
    """Build ``lhs == rhs`` as an equality constraint."""
    if isinstance(rhs, int):
        rhs = AffineExpr(constant=rhs)
    return eq_zero(lhs - rhs)
