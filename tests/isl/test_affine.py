"""Tests for affine expressions."""

import pytest

from tests.polyhedral.isl.affine import AffineExpr, const, var


class TestConstruction:
    def test_var_has_unit_coefficient(self):
        expr = var("i")
        assert expr.coefficient("i") == 1
        assert expr.constant == 0

    def test_const_has_no_variables(self):
        expr = const(7)
        assert expr.is_constant()
        assert expr.constant == 7

    def test_zero_coefficients_are_dropped(self):
        expr = AffineExpr({"i": 0, "j": 2})
        assert expr.variables == ("j",)

    def test_coefficients_are_copied(self):
        expr = AffineExpr({"i": 1})
        coeffs = expr.coeffs
        coeffs["i"] = 99
        assert expr.coefficient("i") == 1


class TestArithmetic:
    def test_addition_merges_coefficients(self):
        expr = var("i") + var("j") + 3
        assert expr.coefficient("i") == 1
        assert expr.coefficient("j") == 1
        assert expr.constant == 3

    def test_addition_cancels_terms(self):
        expr = var("i") - var("i")
        assert expr.is_constant()
        assert expr.constant == 0

    def test_subtraction(self):
        expr = 2 * var("i") - var("j") - 5
        assert expr.coefficient("i") == 2
        assert expr.coefficient("j") == -1
        assert expr.constant == -5

    def test_right_subtraction(self):
        expr = 10 - var("i")
        assert expr.coefficient("i") == -1
        assert expr.constant == 10

    def test_scalar_multiplication(self):
        expr = (var("i") + 2) * 3
        assert expr.coefficient("i") == 3
        assert expr.constant == 6

    def test_negation(self):
        expr = -(var("i") - 4)
        assert expr.coefficient("i") == -1
        assert expr.constant == 4

    def test_multiplication_by_non_integer_rejected(self):
        with pytest.raises(TypeError):
            var("i") * 1.5

    def test_adding_incompatible_type_rejected(self):
        with pytest.raises(TypeError):
            var("i") + "j"


class TestEvaluation:
    def test_evaluate(self):
        expr = 2 * var("i") + 3 * var("j") + 1
        assert expr.evaluate({"i": 2, "j": 5}) == 20

    def test_evaluate_missing_binding_raises(self):
        with pytest.raises(KeyError):
            var("i").evaluate({"j": 1})

    def test_substitute_with_expression(self):
        expr = 2 * var("i") + 1
        substituted = expr.substitute({"i": var("j") + 3})
        assert substituted.coefficient("j") == 2
        assert substituted.constant == 7

    def test_substitute_with_integer(self):
        expr = var("i") + var("j")
        substituted = expr.substitute({"i": 4})
        assert substituted.constant == 4
        assert substituted.coefficient("j") == 1

    def test_rename(self):
        expr = var("i") + 2 * var("j")
        renamed = expr.rename({"i": "x"})
        assert renamed.coefficient("x") == 1
        assert renamed.coefficient("j") == 2


class TestEquality:
    def test_equality_ignores_ordering(self):
        a = AffineExpr({"i": 1, "j": 2}, 3)
        b = AffineExpr({"j": 2, "i": 1}, 3)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_constant(self):
        assert AffineExpr({"i": 1}, 1) != AffineExpr({"i": 1}, 2)

    def test_repr_is_readable(self):
        assert repr(2 * var("i") - 1) == "2*i - 1"
        assert repr(const(0)) == "0"
