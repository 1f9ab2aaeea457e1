"""Property-based tests of the polyhedral-lite substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.closure import reachable_counts, transitive_closure
from tests.polyhedral.isl.counting import card
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.set_ import Set
from tests.polyhedral.isl.space import Space


SET_SPACE = Space.set_space(("i",))
SET_SPACE_2D = Space.set_space(("i", "j"))
MAP_SPACE = Space.map_space(("i",), ("j",))

bounds_1d = st.tuples(st.integers(-20, 20), st.integers(0, 15)).map(
    lambda t: (t[0], t[0] + t[1])
)

points_1d = st.lists(
    st.tuples(st.integers(-30, 30)), min_size=0, max_size=12, unique=True
)

edges = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=0,
    max_size=30,
)


class TestSetProperties:
    @given(bounds_1d)
    def test_box_cardinality_matches_extent(self, bounds):
        lo, hi = bounds
        box = BasicSet.box(SET_SPACE, {"i": (lo, hi)})
        assert card(box) == hi - lo + 1

    @given(bounds_1d, bounds_1d)
    def test_intersection_is_subset_of_both(self, first, second):
        a = Set.box(SET_SPACE, {"i": first})
        b = Set.box(SET_SPACE, {"i": second})
        both = a.intersect(b)
        assert both.is_subset(a) and both.is_subset(b)

    @given(bounds_1d, bounds_1d)
    def test_union_cardinality_inclusion_exclusion(self, first, second):
        a = Set.box(SET_SPACE, {"i": first})
        b = Set.box(SET_SPACE, {"i": second})
        assert a.union(b).count() == a.count() + b.count() - a.intersect(b).count()

    @given(points_1d, points_1d)
    def test_subtract_then_union_recovers_superset(self, first, second):
        a = Set.from_points(SET_SPACE, first)
        b = Set.from_points(SET_SPACE, second)
        difference = a.subtract(b)
        assert difference.is_subset(a)
        assert difference.intersect(b).is_empty()

    @given(points_1d)
    def test_from_points_roundtrip(self, points):
        assert Set.from_points(SET_SPACE, points).point_set() == frozenset(points)


class TestMapProperties:
    @given(edges)
    def test_reverse_is_involution(self, pairs):
        relation = Map.from_pairs(MAP_SPACE, [((a,), (b,)) for a, b in pairs])
        assert relation.reverse().reverse().pair_set() == relation.pair_set()

    @given(edges)
    def test_domain_and_range_swap_under_reverse(self, pairs):
        relation = Map.from_pairs(MAP_SPACE, [((a,), (b,)) for a, b in pairs])
        assert relation.domain().point_set() == relation.reverse().range().point_set()

    @given(edges)
    @settings(max_examples=40)
    def test_closure_contains_relation_and_is_transitive(self, pairs):
        relation = Map.from_pairs(MAP_SPACE, [((a,), (b,)) for a, b in pairs])
        closure = transitive_closure(relation)
        assert relation.pair_set() <= closure.pair_set()
        # Transitivity: closure composed with itself adds nothing new.
        assert closure.compose(closure).pair_set() <= closure.pair_set()

    @given(edges)
    @settings(max_examples=40)
    def test_reachable_counts_match_closure(self, pairs):
        relation = Map.from_pairs(MAP_SPACE, [((a,), (b,)) for a, b in pairs])
        closure = transitive_closure(relation)
        counts = reachable_counts(relation)
        for source in relation.domain().points():
            assert counts[source] == len(closure.successors(source))

    @given(st.integers(2, 12), st.integers(1, 4))
    def test_translation_closure_size(self, length, stride):
        domain = BasicSet.box(SET_SPACE, {"i": (0, length - 1)})
        relation = Map.from_basic(BasicMap.translation(MAP_SPACE, (stride,), domain))
        closure = transitive_closure(relation)
        explicit = transitive_closure(Map.from_pairs(MAP_SPACE, relation.pairs()))
        assert closure.pair_set() == explicit.pair_set()
