"""Tests for affine constraints."""

import pytest

from tests.polyhedral.isl.affine import var
from tests.polyhedral.isl.constraint import Constraint, eq, eq_zero, ge, ge_zero, le


class TestSatisfaction:
    def test_equality_satisfied(self):
        constraint = eq_zero(var("i") - 3)
        assert constraint.satisfied_by({"i": 3})
        assert not constraint.satisfied_by({"i": 4})

    def test_inequality_satisfied(self):
        constraint = ge_zero(var("i") - 2)
        assert constraint.satisfied_by({"i": 2})
        assert constraint.satisfied_by({"i": 5})
        assert not constraint.satisfied_by({"i": 1})

    def test_le_helper(self):
        constraint = le(var("i"), 4)
        assert constraint.satisfied_by({"i": 4})
        assert not constraint.satisfied_by({"i": 5})

    def test_ge_helper(self):
        constraint = ge(var("i"), var("j"))
        assert constraint.satisfied_by({"i": 3, "j": 3})
        assert not constraint.satisfied_by({"i": 2, "j": 3})

    def test_eq_helper(self):
        constraint = eq(var("i"), var("j") + 1)
        assert constraint.satisfied_by({"i": 4, "j": 3})
        assert not constraint.satisfied_by({"i": 4, "j": 4})


class TestTriviality:
    def test_trivially_true_inequality(self):
        assert ge_zero(var("i") * 0 + 5).is_trivially_true()

    def test_trivially_false_inequality(self):
        assert ge_zero(var("i") * 0 - 1).is_trivially_false()

    def test_trivially_true_equality(self):
        assert eq_zero(var("i") * 0).is_trivially_true()

    def test_trivially_false_equality(self):
        assert eq_zero(var("i") * 0 + 2).is_trivially_false()

    def test_non_constant_not_trivial(self):
        constraint = ge_zero(var("i"))
        assert not constraint.is_trivially_true()
        assert not constraint.is_trivially_false()


class TestTransformation:
    def test_rename(self):
        constraint = ge_zero(var("i") - 1).rename({"i": "k"})
        assert constraint.variables == ("k",)
        assert constraint.satisfied_by({"k": 1})

    def test_substitute(self):
        constraint = ge_zero(var("i") - 1).substitute({"i": var("j") + 5})
        assert constraint.satisfied_by({"j": 0})
        assert constraint.satisfied_by({"j": -4})
        assert not constraint.satisfied_by({"j": -5})

    def test_requires_affine_expr(self):
        with pytest.raises(TypeError):
            Constraint("i >= 0", is_equality=False)

    def test_equality_and_hash(self):
        a = ge_zero(var("i") - 1)
        b = ge_zero(var("i") - 1)
        assert a == b and hash(a) == hash(b)
        assert a != eq_zero(var("i") - 1)

    def test_repr(self):
        assert repr(ge_zero(var("i"))) == "i >= 0"
        assert repr(eq_zero(var("i") - 1)) == "i - 1 = 0"
