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
from repro.hardware.coupling import CouplingGraph
from repro.routing.engine import (
    PairDeltaScorer,
    RouterError,
    RoutingEngine,
    RoutingState,
)


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

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        super().__init__(coupling, seed)
        self._last_swap: tuple[int, int] | None = None

    def on_circuit_start(self, state: RoutingState) -> None:
        self._last_swap = None

    def on_gate_executed(self, state: RoutingState, index: int) -> None:
        self._last_swap = None

    def on_swap_applied(self, state: RoutingState, swap: tuple[int, int]) -> None:
        self._last_swap = swap

    def _next_slice(self, state: RoutingState) -> list[int]:
        """Two-qubit gates that become ready right after the current front layer."""
        upcoming: list[int] = []
        is_2q = state.is_2q
        successors_of = state.dag.successors
        executed = state.executed
        for index in sorted(state.front):
            for successor in successors_of(index):
                if successor in executed:
                    continue
                if is_2q[successor] and successor not in upcoming:
                    upcoming.append(successor)
                    if len(upcoming) >= self.next_slice_size:
                        return upcoming
        return upcoming

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        candidates = state.candidate_swaps()
        if not candidates:
            raise RouterError("no candidate SWAPs available")
        front = state.unresolved_front()
        upcoming = self._next_slice(state)

        front_sum = PairDeltaScorer.for_gates(state, front).swapped_sum
        upcoming_sum = PairDeltaScorer.for_gates(state, upcoming).swapped_sum
        weight = self.next_slice_weight
        last_swap = self._last_swap

        best_cost = float("inf")
        best: list[tuple[int, int]] = []
        for candidate in candidates:
            a, b = candidate
            # Scaling the slice sum once rounds differently from weighting
            # each term, in the last bits only: at weight 0.4, distinct costs
            # (integer + 0.4 * integer, + 0.5) differ by >= 0.1, far outside
            # the 1e-12 tie tolerance, so the chosen SWAP is the same.
            cost = front_sum(a, b) + weight * upcoming_sum(a, b)
            if candidate == last_swap:
                cost += 0.5
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = [candidate]
            elif abs(cost - best_cost) <= 1e-12:
                best.append(candidate)
        state.cost_evaluations += len(candidates)
        return best[0] if len(best) == 1 else self._rng.choice(best)
