"""Distance-only greedy router (the simplest geometric baseline).

At every stall, the SWAP that most reduces the total physical distance
between the operands of the unresolved front-layer gates is applied.  This is
the "purely geometric heuristic" the paper contrasts dependence-driven
mapping against, and it also serves as the reference point of the Fig. 8
ablation study.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.routing.engine import PairDeltaScorer, RoutingEngine, RoutingState


@register_router(
    "greedy",
    aliases=("greedy-distance",),
    description="plain distance-only router (the ablation reference point)",
)
class GreedyDistanceRouter(RoutingEngine):
    """Pick the SWAP minimising the summed front-layer qubit distance."""

    name = "greedy-distance"

    def swap_costs(self, state: RoutingState, candidates: list) -> list[float]:
        front = state.unresolved_front()

        front_sum = PairDeltaScorer.for_gates(state, front).swapped_sum
        last_swap = state.last_swap

        costs = []
        for candidate in candidates:
            cost = float(front_sum(*candidate))
            if candidate == last_swap:
                # Undoing the previous SWAP never makes progress; discourage it.
                cost += 0.5
            costs.append(cost)
        return costs
