"""Tests for point counting (the Barvinok stand-in)."""

import pytest

from tests.polyhedral.isl.affine import var
from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.constraint import ge, le
from tests.polyhedral.isl.counting import card, card_map_range_per_domain
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.space import Space


SPACE_1D = Space.set_space(("i",))
SPACE_2D = Space.set_space(("i", "j"))
MAP_SPACE = Space.map_space(("i",), ("j",))


class TestCard:
    def test_box_closed_form(self):
        box = BasicSet.box(SPACE_2D, {"i": (0, 9), "j": (0, 4)})
        assert card(box) == 50

    def test_box_with_empty_dimension(self):
        box = BasicSet.box(SPACE_2D, {"i": (5, 4), "j": (0, 4)})
        assert card(box) == 0

    def test_non_box_falls_back_to_enumeration(self):
        triangle = BasicSet(
            SPACE_2D,
            [ge(var("i"), 0), le(var("i"), 3), ge(var("j"), var("i")), le(var("j"), 3)],
        )
        assert card(triangle) == 10

    def test_set_cardinality(self):
        union = Set.box(SPACE_1D, {"i": (0, 4)}).union(Set.box(SPACE_1D, {"i": (3, 6)}))
        assert card(union) == 7

    def test_map_cardinality(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((1,), (2,)), ((1,), (3,))])
        assert card(relation) == 3

    def test_singleton_equality_box(self):
        point = BasicSet.from_point(SPACE_2D, (2, 3))
        assert card(point) == 1

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            card([1, 2, 3])


class TestPerDomainCounts:
    def test_counts_grouped_by_domain_point(self):
        relation = Map.from_pairs(
            MAP_SPACE, [((0,), (1,)), ((0,), (2,)), ((1,), (2,)), ((2,), (3,))]
        )
        counts = card_map_range_per_domain(relation)
        assert counts == {(0,): 2, (1,): 1, (2,): 1}

    def test_counts_of_translation_map(self):
        domain = BasicSet.box(SPACE_1D, {"i": (0, 4)})
        relation = Map.from_basic(BasicMap.translation(MAP_SPACE, (1,), domain))
        counts = card_map_range_per_domain(relation)
        assert all(count == 1 for count in counts.values())
        assert len(counts) == 5
