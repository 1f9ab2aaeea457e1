"""Tests for integer sets (unions of basic sets)."""

import pytest

from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.space import Space


SPACE = Space.set_space(("i",))
SPACE_2D = Space.set_space(("i", "j"))


class TestConstruction:
    def test_empty_set(self):
        empty = Set.empty(SPACE)
        assert empty.is_empty()
        assert empty.count() == 0

    def test_from_points_deduplicates(self):
        points = Set.from_points(SPACE, [(1,), (2,), (1,)])
        assert points.count() == 2

    def test_box(self):
        box = Set.box(SPACE_2D, {"i": (0, 1), "j": (0, 1)})
        assert box.count() == 4

    def test_from_basic(self):
        basic = BasicSet.box(SPACE, {"i": (0, 4)})
        assert Set.from_basic(basic).count() == 5

    def test_piece_space_mismatch_rejected(self):
        basic = BasicSet.box(SPACE_2D, {"i": (0, 1), "j": (0, 1)})
        with pytest.raises(ValueError):
            Set(SPACE, [basic])


class TestAlgebra:
    def test_union_counts_distinct_points(self):
        a = Set.box(SPACE, {"i": (0, 4)})
        b = Set.box(SPACE, {"i": (3, 7)})
        assert a.union(b).count() == 8

    def test_intersection(self):
        a = Set.box(SPACE, {"i": (0, 4)})
        b = Set.box(SPACE, {"i": (3, 7)})
        assert sorted(a.intersect(b).points()) == [(3,), (4,)]

    def test_subtract(self):
        a = Set.box(SPACE, {"i": (0, 5)})
        b = Set.box(SPACE, {"i": (2, 3)})
        assert sorted(a.subtract(b).points()) == [(0,), (1,), (4,), (5,)]

    def test_subset(self):
        small = Set.box(SPACE, {"i": (1, 2)})
        big = Set.box(SPACE, {"i": (0, 5)})
        assert small.is_subset(big)
        assert not big.is_subset(small)

    def test_equality_across_representations(self):
        explicit = Set.from_points(SPACE, [(0,), (1,), (2,)])
        symbolic = Set.box(SPACE, {"i": (0, 2)})
        assert explicit.is_equal(symbolic)
        assert explicit == symbolic

    def test_coalesce_drops_empty_pieces(self):
        empty_piece = BasicSet.box(SPACE, {"i": (4, 2)})
        full_piece = BasicSet.box(SPACE, {"i": (0, 1)})
        combined = Set(SPACE, [empty_piece, full_piece]).coalesce()
        assert len(combined.pieces) == 1
        assert combined.count() == 2

    def test_incompatible_spaces_rejected(self):
        with pytest.raises(ValueError):
            Set.empty(SPACE).union(Set.empty(SPACE_2D))

    def test_contains(self):
        box = Set.box(SPACE, {"i": (0, 3)})
        assert box.contains((2,))
        assert not box.contains((9,))
