"""Property tests for the shared delta scorer of the baseline routers.

:class:`PairDeltaScorer` adjusts a base distance sum by the pairs a SWAP
touches.  The oracle below re-sums every pair under the transposition
``(a b)``, the way the routers scored candidates before the delta form, on
random connected couplings and random pair lists that share qubits and
include pairs lying on candidate edges.
"""

from __future__ import annotations

import random

import pytest

from repro.routing.engine import PairDeltaScorer
from tests.routing.test_astar_properties import random_connected_coupling


def _transposed(qubit: int, a: int, b: int) -> int:
    return b if qubit == a else a if qubit == b else qubit


def _swapped_distances(pairs, a, b, distance) -> list[int]:
    return [
        distance[_transposed(p1, a, b)][_transposed(p2, a, b)] for p1, p2 in pairs
    ]


def _random_pairs(coupling, rng: random.Random) -> list[tuple[int, int]]:
    """Random pairs over few qubits (so they share qubits) plus two edge pairs."""
    n = coupling.num_qubits
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    edges = coupling.edges()
    a, b = rng.choice(edges)
    pairs.append((a, b))
    a, b = rng.choice(edges)
    pairs.append((b, a))
    rng.shuffle(pairs)
    return pairs


def _disjoint_pairs(coupling, rng: random.Random) -> list[tuple[int, int]]:
    """Qubit-disjoint pairs, as in a front layer."""
    qubits = list(range(coupling.num_qubits))
    rng.shuffle(qubits)
    count = rng.randint(0, len(qubits) // 2)
    return [(qubits[2 * i], qubits[2 * i + 1]) for i in range(count)]


@pytest.mark.parametrize("trial", range(40))
def test_swapped_sum_matches_resummation_on_every_edge(trial):
    rng = random.Random(700 + trial)
    coupling = random_connected_coupling(rng.randint(3, 12), rng)
    distance = coupling.distance_table().rows
    pairs = _random_pairs(coupling, rng)
    scorer = PairDeltaScorer(pairs, distance)
    assert scorer.base == sum(distance[p1][p2] for p1, p2 in pairs)
    on_edge = 0
    for a, b in coupling.edges():
        on_edge += any({p1, p2} == {a, b} for p1, p2 in pairs)
        expected = sum(_swapped_distances(pairs, a, b, distance))
        assert scorer.swapped_sum(a, b) == expected
        assert scorer.swapped_sum(b, a) == expected
    assert on_edge >= 1


@pytest.mark.parametrize("trial", range(40))
def test_swapped_longest_matches_maximum_on_every_edge(trial):
    rng = random.Random(900 + trial)
    coupling = random_connected_coupling(rng.randint(3, 12), rng)
    distance = coupling.distance_table().rows
    for pairs in (_random_pairs(coupling, rng), _disjoint_pairs(coupling, rng)):
        scorer = PairDeltaScorer(pairs, distance)
        for a, b in coupling.edges():
            expected = max(_swapped_distances(pairs, a, b, distance), default=0)
            assert scorer.swapped_longest(a, b) == expected
            assert scorer.swapped_longest(b, a) == expected


def test_no_pairs_scores_zero():
    coupling = random_connected_coupling(4, random.Random(1))
    scorer = PairDeltaScorer([], coupling.distance_table().rows)
    a, b = coupling.edges()[0]
    assert scorer.swapped_sum(a, b) == 0
    assert scorer.swapped_longest(a, b) == 0
