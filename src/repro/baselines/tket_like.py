"""tket-style router: bound the longest qubit distance of the active slice.

Quantinuum's tket routing pass evaluates SWAPs on time slices and prefers
moves that reduce (bound) the *maximum* distance between the qubit pairs of
the slice, falling back to the summed distance for tie-breaking.  This
reimplements that minimax cost family on the shared routing engine.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.routing.engine import PairDeltaScorer, RoutingEngine, RoutingState


@register_router(
    "tket",
    aliases=("tket-like", "pytket"),
    description="tket-style time-sliced router bounding the longest qubit distance",
)
class TketLikeRouter(RoutingEngine):
    """Minimax-distance SWAP selection over the current front layer."""

    name = "tket-like"

    #: Number of upcoming two-qubit gates included with reduced influence.
    lookahead_size = 4
    #: Weight of the look-ahead contribution in the tie-breaking sum.
    lookahead_weight = 0.25

    def on_front_layer(self, state: RoutingState) -> None:
        self._upcoming = state.upcoming_two_qubit(self.lookahead_size)

    def swap_costs(self, state: RoutingState, candidates: list) -> list[float]:
        front = PairDeltaScorer.for_gates(state, state.unresolved_front())
        front_longest = front.swapped_longest
        front_sum = front.swapped_sum
        upcoming_sum = PairDeltaScorer.for_gates(state, self._upcoming).swapped_sum
        weight = self.lookahead_weight
        last_swap = state.last_swap

        costs = []
        for candidate in candidates:
            a, b = candidate
            total = front_sum(a, b) + weight * upcoming_sum(a, b)
            if candidate == last_swap:
                total += 0.5
            # The key (longest, total) as one float.  ``longest`` is an
            # integer no larger than the device diameter, and ``total`` is a
            # non-negative multiple of 0.25 (integer sums, a power-of-two
            # weight) far below 2**32.  So the cost is exact, orders and ties
            # like the tuple, and distinct costs differ by at least 0.25, far
            # outside the engine's 1e-12 tie tolerance.
            costs.append(front_longest(a, b) * 2**32 + total)
        return costs
