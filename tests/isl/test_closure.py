"""Tests for transitive closure and reachability counting."""

import pytest

from tests.polyhedral.isl.basic_map import BasicMap
from tests.polyhedral.isl.basic_set import BasicSet
from tests.polyhedral.isl.closure import power, reachable_counts, transitive_closure
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.space import Space


MAP_SPACE = Space.map_space(("i",), ("j",))
SET_SPACE = Space.set_space(("i",))


def chain_map(length: int) -> Map:
    """The successor relation on a chain 0 -> 1 -> ... -> length."""
    domain = BasicSet.box(SET_SPACE, {"i": (0, length - 1)})
    return Map.from_basic(BasicMap.translation(MAP_SPACE, (1,), domain))


class TestPower:
    def test_square_of_chain(self):
        squared = power(chain_map(4), 2)
        assert sorted(squared.pairs()) == [
            ((0,), (2,)), ((1,), (3,)), ((2,), (4,)),
        ]

    def test_power_one_is_identity_operation(self):
        relation = chain_map(3)
        assert power(relation, 1).pair_set() == relation.pair_set()

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            power(chain_map(3), 0)


class TestTransitiveClosure:
    def test_chain_closure_is_strict_order(self):
        closure = transitive_closure(chain_map(4))
        expected = {((i,), (j,)) for i in range(5) for j in range(5) if i < j}
        assert closure.pair_set() == expected

    def test_symbolic_path_matches_explicit(self):
        """The symbolic fast path and the explicit fixpoint must agree."""
        symbolic_input = chain_map(6)
        explicit_input = Map.from_pairs(MAP_SPACE, symbolic_input.pairs())
        assert transitive_closure(symbolic_input).pair_set() == transitive_closure(
            explicit_input
        ).pair_set()

    def test_branching_dag(self):
        relation = Map.from_pairs(
            MAP_SPACE, [((0,), (1,)), ((0,), (2,)), ((1,), (3,)), ((2,), (3,))]
        )
        closure = transitive_closure(relation)
        assert closure.contains_pair((0,), (3,))
        assert closure.count() == 5

    def test_cycle_closure(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((1,), (0,))])
        closure = transitive_closure(relation)
        # Every node reaches both nodes (including itself through the cycle).
        assert closure.pair_set() == {
            ((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,)),
        }

    def test_empty_relation(self):
        assert transitive_closure(Map.empty(MAP_SPACE)).is_empty()

    def test_closure_is_idempotent(self):
        relation = Map.from_pairs(
            MAP_SPACE, [((0,), (1,)), ((1,), (2,)), ((2,), (4,)), ((1,), (4,))]
        )
        once = transitive_closure(relation)
        twice = transitive_closure(once)
        assert once.pair_set() == twice.pair_set()


class TestReachableCounts:
    def test_chain_counts(self):
        counts = reachable_counts(chain_map(4))
        assert counts[(0,)] == 4
        assert counts[(3,)] == 1
        assert counts[(4,)] == 0

    def test_counts_match_closure_cardinalities(self):
        relation = Map.from_pairs(
            MAP_SPACE,
            [((0,), (1,)), ((0,), (2,)), ((1,), (3,)), ((2,), (3,)), ((3,), (5,))],
        )
        closure = transitive_closure(relation)
        counts = reachable_counts(relation)
        for source in relation.domain().points():
            assert counts[source] == len(closure.successors(source))

    def test_cyclic_counts(self):
        relation = Map.from_pairs(MAP_SPACE, [((0,), (1,)), ((1,), (0,)), ((1,), (2,))])
        counts = reachable_counts(relation)
        assert counts[(0,)] == 3  # reaches 0, 1 and 2
        assert counts[(1,)] == 3
