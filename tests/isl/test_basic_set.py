"""Tests for basic sets (conjunctions of affine constraints)."""

import pytest

from tests.polyhedral.isl.affine import var
from tests.polyhedral.isl.basic_set import BasicSet, UnboundedSetError
from tests.polyhedral.isl.constraint import eq, ge, ge_zero, le
from tests.polyhedral.isl.space import Space


SPACE_1D = Space.set_space(("i",))
SPACE_2D = Space.set_space(("i", "j"))


class TestConstruction:
    def test_box_membership(self):
        box = BasicSet.box(SPACE_2D, {"i": (0, 2), "j": (1, 3)})
        assert box.contains((0, 1))
        assert box.contains((2, 3))
        assert not box.contains((3, 1))
        assert not box.contains((0, 0))

    def test_from_point(self):
        point = BasicSet.from_point(SPACE_2D, (4, 5))
        assert point.contains((4, 5))
        assert not point.contains((4, 6))
        assert point.count() == 1

    def test_universe_contains_everything(self):
        universe = BasicSet.universe(SPACE_1D)
        assert universe.contains((0,))
        assert universe.contains((-100,))

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            BasicSet(SPACE_1D, [ge_zero(var("x"))])

    def test_trivially_true_constraints_dropped(self):
        box = BasicSet(SPACE_1D, [ge_zero(var("i") * 0 + 1), ge(var("i"), 0), le(var("i"), 1)])
        assert len(box.constraints) == 2


class TestEnumeration:
    def test_box_enumeration(self):
        box = BasicSet.box(SPACE_2D, {"i": (0, 1), "j": (0, 2)})
        assert sorted(box.points()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_triangular_domain(self):
        triangle = BasicSet(
            SPACE_2D,
            [ge(var("i"), 0), le(var("i"), 3), ge(var("j"), var("i")), le(var("j"), 3)],
        )
        points = set(triangle.points())
        assert (0, 3) in points and (3, 3) in points
        assert (2, 1) not in points
        assert len(points) == 10

    def test_equality_constraint_pins_dimension(self):
        diag = BasicSet(
            SPACE_2D, [ge(var("i"), 0), le(var("i"), 4), eq(var("j"), var("i"))]
        )
        assert sorted(diag.points()) == [(i, i) for i in range(5)]

    def test_unbounded_raises(self):
        unbounded = BasicSet(SPACE_1D, [ge(var("i"), 0)])
        with pytest.raises(UnboundedSetError):
            list(unbounded.points())

    def test_count_matches_enumeration(self):
        box = BasicSet.box(SPACE_2D, {"i": (0, 3), "j": (0, 4)})
        assert box.count() == 20

    def test_infeasible_equality_is_empty(self):
        infeasible = BasicSet(
            SPACE_1D, [eq(var("i") * 2, 3), ge(var("i"), 0), le(var("i"), 10)]
        )
        assert infeasible.is_empty()

    def test_empty_box(self):
        empty = BasicSet.box(SPACE_1D, {"i": (3, 1)})
        assert empty.is_empty()
        assert empty.count() == 0


class TestAlgebra:
    def test_intersection(self):
        a = BasicSet.box(SPACE_1D, {"i": (0, 10)})
        b = BasicSet.box(SPACE_1D, {"i": (5, 15)})
        both = a.intersect(b)
        assert sorted(both.points()) == [(i,) for i in range(5, 11)]

    def test_intersection_space_mismatch(self):
        with pytest.raises(ValueError):
            BasicSet.universe(SPACE_1D).intersect(BasicSet.universe(SPACE_2D))

    def test_add_constraints(self):
        box = BasicSet.box(SPACE_1D, {"i": (0, 9)})
        constrained = box.add_constraints([ge(var("i"), 7)])
        assert constrained.count() == 3

    def test_rename_dims(self):
        box = BasicSet.box(SPACE_1D, {"i": (0, 2)})
        renamed = box.rename_dims({"i": "k"}, Space.set_space(("k",)))
        assert renamed.contains((2,))
        assert renamed.count() == 3

    def test_equality_and_hash(self):
        a = BasicSet.box(SPACE_1D, {"i": (0, 2)})
        b = BasicSet.box(SPACE_1D, {"i": (0, 2)})
        assert a == b and hash(a) == hash(b)
