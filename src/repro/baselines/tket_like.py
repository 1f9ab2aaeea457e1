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

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        candidates = state.candidate_swaps()
        front = PairDeltaScorer.for_gates(state, state.unresolved_front())
        front_longest = front.swapped_longest
        front_sum = front.swapped_sum
        upcoming_sum = PairDeltaScorer.for_gates(state, self._upcoming).swapped_sum
        weight = self.lookahead_weight
        last_swap = state.last_swap

        best_key: tuple[float, float] | None = None
        best: list[tuple[int, int]] = []
        for candidate in candidates:
            a, b = candidate
            longest = front_longest(a, b)
            # Exact: the sums are integers and the weight is a power of two.
            total = front_sum(a, b) + weight * upcoming_sum(a, b)
            if candidate == last_swap:
                total += 0.5
            key = (float(longest), total)
            if best_key is None or key < best_key:
                best_key = key
                best = [candidate]
            elif key == best_key:
                best.append(candidate)
        state.cost_evaluations += len(candidates)
        return best[0] if len(best) == 1 else self._rng.choice(best)
