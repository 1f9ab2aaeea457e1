"""Cirq-style time-sliced greedy distance router.

Google Cirq's ``route_circuit`` pass works on time slices of the circuit and
greedily selects SWAPs that reduce the summed qubit distance of the current
slice, with a small look-ahead over the following slice.  This reimplements
that cost family on the shared routing engine: the current front layer plays
the role of the active time slice, and the immediately following slice is
considered with reduced weight.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.routing.engine import PairDeltaScorer, RoutingEngine, RoutingState


@register_router(
    "cirq",
    aliases=("cirq-like",),
    description="Cirq-style time-sliced greedy qubit-distance router",
)
class CirqLikeRouter(RoutingEngine):
    """Time-sliced greedy router using summed qubit distance."""

    name = "cirq-like"

    #: Relative weight of the next time slice in the cost.
    next_slice_weight = 0.4
    #: Maximum number of gates from the next slice taken into account.
    next_slice_size = 8

    def on_front_layer(self, state: RoutingState) -> None:
        self._upcoming = state.upcoming_two_qubit(self.next_slice_size)

    def swap_costs(self, state: RoutingState, candidates: list) -> list[float]:
        front = state.unresolved_front()
        upcoming = self._upcoming

        front_sum = PairDeltaScorer.for_gates(state, front).swapped_sum
        upcoming_sum = PairDeltaScorer.for_gates(state, upcoming).swapped_sum
        weight = self.next_slice_weight
        last_swap = state.last_swap

        costs = []
        for candidate in candidates:
            a, b = candidate
            # Scaling the slice sum once rounds differently from weighting
            # each term, in the last bits only: at weight 0.4, distinct costs
            # (integer + 0.4 * integer, + 0.5) differ by >= 0.1, far outside
            # the 1e-12 tie tolerance, so the chosen SWAP is the same.
            cost = front_sum(a, b) + weight * upcoming_sum(a, b)
            if candidate == last_swap:
                cost += 0.5
            costs.append(cost)
        return costs
