"""Tests for basic maps and maps (integer relations)."""

import pytest

from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.space import Space


MAP_SPACE = Space.map_space(("i",), ("j",))
SET_SPACE = Space.set_space(("i",))


def translation_map(offset: int, lo: int, hi: int) -> Map:
    domain = BasicSet.box(SET_SPACE, {"i": (lo, hi)})
    return Map.from_basic(BasicMap.translation(MAP_SPACE, (offset,), domain))


class TestBasicMap:
    def test_translation_pairs(self):
        relation = translation_map(2, 0, 3)
        assert sorted(relation.pairs()) == [
            ((0,), (2,)), ((1,), (3,)), ((2,), (4,)), ((3,), (5,)),
        ]

    def test_from_pair(self):
        basic = BasicMap.from_pair(MAP_SPACE, (1,), (5,))
        assert basic.contains_pair((1,), (5,))
        assert not basic.contains_pair((1,), (4,))
        assert basic.count() == 1

    def test_translation_requires_matching_arity(self):
        with pytest.raises(ValueError):
            BasicMap.translation(MAP_SPACE, (1, 2))

    def test_as_translation_detects_offsets(self):
        basic = BasicMap.translation(MAP_SPACE, (3,), BasicSet.box(SET_SPACE, {"i": (0, 5)}))
        assert basic.as_translation() == (3,)

    def test_as_translation_rejects_non_translation(self):
        basic = BasicMap.from_pair(MAP_SPACE, (1,), (5,))
        # A single pinned pair is not a uniform translation of the whole line.
        assert basic.as_translation() is None

    def test_reverse(self):
        basic = BasicMap.translation(MAP_SPACE, (1,), BasicSet.box(SET_SPACE, {"i": (0, 2)}))
        assert sorted(basic.reverse().pairs()) == [((1,), (0,)), ((2,), (1,)), ((3,), (2,))]

    def test_intersect_domain_and_range(self):
        basic = BasicMap.translation(MAP_SPACE, (1,), BasicSet.box(SET_SPACE, {"i": (0, 9)}))
        domain = BasicSet.box(SET_SPACE, {"i": (0, 2)})
        rng = BasicSet.box(Space.set_space(("j",)), {"j": (2, 10)})
        restricted = basic.intersect_domain(domain).intersect_range(rng)
        assert sorted(restricted.pairs()) == [((1,), (2,)), ((2,), (3,))]

    def test_set_space_rejected(self):
        with pytest.raises(ValueError):
            BasicMap(SET_SPACE)


class TestMap:
    def test_from_pairs_and_contains(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((1,), (2,))])
        assert relation.contains_pair((0,), (1,))
        assert not relation.contains_pair((2,), (3,))
        assert relation.count() == 2

    def test_domain_and_range(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (5,)), ((1,), (5,))])
        assert relation.domain().count() == 2
        assert relation.range().count() == 1

    def test_union(self):
        a = Map.from_pairs(MAP_SPACE, [((0,), (1,))])
        b = Map.from_pairs(MAP_SPACE, [((1,), (2,))])
        assert a.union(b).count() == 2

    def test_intersect(self):
        a = translation_map(1, 0, 5)
        b = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((9,), (10,))])
        assert sorted(a.intersect(b).pairs()) == [((0,), (1,))]

    def test_subtract(self):
        a = translation_map(1, 0, 3)
        b = Map.from_pairs(MAP_SPACE, [((0,), (1,))])
        assert a.subtract(b).count() == 3

    def test_reverse_explicit(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (3,))])
        assert sorted(relation.reverse().pairs()) == [((3,), (0,))]

    def test_compose(self):
        first = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((1,), (2,))])
        second = Map.from_pairs(MAP_SPACE, [((1,), (10,)), ((2,), (20,))])
        composed = first.compose(second)
        assert sorted(composed.pairs()) == [((0,), (10,)), ((1,), (20,))]

    def test_apply_to_set(self):
        relation = translation_map(2, 0, 4)
        image = relation.apply(Set.from_points(SET_SPACE, [(0,), (1,)]))
        assert sorted(image.points()) == [(2,), (3,)]

    def test_identity(self):
        domain = Set.box(SET_SPACE, {"i": (0, 3)})
        identity = Map.identity(MAP_SPACE, domain)
        assert sorted(identity.pairs()) == [((i,), (i,)) for i in range(4)]

    def test_intersect_domain_range_explicit(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((5,), (6,))])
        domain = Set.from_points(SET_SPACE, [(0,)])
        assert relation.intersect_domain(domain).count() == 1
        rng = Set.from_points(Space.set_space(("j",)), [(6,)])
        assert relation.intersect_range(rng).count() == 1

    def test_successors(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((0,), (2,)), ((1,), (2,))])
        assert relation.successors((0,)) == frozenset({(1,), (2,)})

    def test_as_adjacency(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((0,), (2,))])
        adjacency = relation.as_adjacency()
        assert adjacency[(0,)] == {(1,), (2,)}

    def test_equality_across_representations(self):
        explicit = Map.from_pairs(MAP_SPACE, [((i,), (i + 1,)) for i in range(4)])
        symbolic = translation_map(1, 0, 3)
        assert explicit.is_equal(symbolic)

    def test_incompatible_spaces_rejected(self):
        other = Map.empty(Space.map_space(("a", "b"), ("c",)))
        with pytest.raises(ValueError):
            Map.empty(MAP_SPACE).union(other)

    def test_compose_arity_mismatch_rejected(self):
        other = Map.empty(Space.map_space(("a", "b"), ("c",)))
        with pytest.raises(ValueError):
            Map.empty(MAP_SPACE).compose(other)
