"""Reference form of tket's choice rule: a lexicographic argmin, re-summed.

:class:`~repro.baselines.tket_like.TketLikeRouter` folds its key
``(longest, total)`` into one float cost and leaves the argmin to the routing
engine.  This module keeps the rule in its original form as the test oracle:
for every candidate SWAP it applies the SWAP to a copy of the layout, re-sums
the front and upcoming pair distances from the device's distance matrix (no
delta scorer) and compares the keys as tuples, keeping every exact tie in
candidate order.
"""

from __future__ import annotations


def tket_ties(state, upcoming, lookahead_weight: float) -> list[tuple[int, int]]:
    """The candidates with the smallest ``(longest, total)`` key, in candidate order.

    ``longest`` is the largest front-pair distance after the SWAP, ``total``
    the summed front distances plus ``lookahead_weight`` times the summed
    ``upcoming`` distances, plus 0.5 for the SWAP that repeats the last one.
    """
    distance = state.coupling.distance_matrix()
    front = [state.op_pairs[index] for index in state.unresolved_front()]
    later = [state.op_pairs[index] for index in upcoming]

    best_key = None
    best: list[tuple[int, int]] = []
    for candidate in state.candidate_swaps():
        swapped = state.layout.copy()
        swapped.swap_physical(*candidate)
        phys_of = swapped.phys_of
        front_distances = [distance[phys_of[q1]][phys_of[q2]] for q1, q2 in front]
        total = sum(front_distances) + lookahead_weight * sum(
            distance[phys_of[q1]][phys_of[q2]] for q1, q2 in later
        )
        if candidate == state.last_swap:
            total += 0.5
        key = (max(front_distances), total)
        if best_key is None or key < best_key:
            best_key = key
            best = [candidate]
        elif key == best_key:
            best.append(candidate)
    return best
