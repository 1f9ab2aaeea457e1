"""SABRE-style routing (Li et al., ASPLOS'19) and its LightSABRE refinement.

SABRE splits the not-yet-executed circuit into a *front layer* ``F`` and a
fixed-size *extended layer* ``E`` of upcoming two-qubit gates and evaluates
candidate SWAPs with the cost::

    H(s) = max(decay_q1, decay_q2) * ( sum_{g in F} D[phi_s] / |F|
                                       + W * sum_{g in E} D[phi_s] / |E| )

where ``W < 1`` weighs the look-ahead contribution and the decay factor
discourages thrashing the same qubit.  ``LightSabreRouter`` uses the same
cost with the release-valve behaviour of the Qiskit implementation (when the
same front gate stays blocked for too long, SWAPs are forced along its
shortest path) which keeps runtimes low on adversarial instances.

Both layer sums are scored with one
:class:`~repro.routing.engine.PairDeltaScorer` each, built per stall, so a
candidate only re-reads the pairs on its two qubits; no tentative layout is
materialised per candidate, and decay resets are O(1) via the generation
counter of :class:`~repro.routing.decay.DecayTable`.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.hardware.coupling import CouplingGraph
from repro.routing.decay import DecayTable
from repro.routing.engine import (
    PairDeltaScorer,
    RouterError,
    RoutingEngine,
    RoutingState,
)


@register_router(
    "sabre",
    description="SABRE front+extended-layer cost with qubit decay (Li et al.)",
)
class SabreRouter(RoutingEngine):
    """Front + extended layer SWAP selection with qubit decay."""

    name = "sabre"

    #: Number of two-qubit gates in the extended (look-ahead) layer.
    extended_set_size = 20
    #: Weight of the extended layer in the cost function.
    extended_set_weight = 0.5
    #: Additive decay penalty per SWAP on a qubit.
    decay_increment = 0.001
    #: Number of consecutive SWAPs without progress before the release valve opens.
    release_valve_threshold = 0

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        super().__init__(coupling, seed)
        self._decay = DecayTable(0, self.decay_increment)
        self._stall_counter = 0

    # -- hooks -------------------------------------------------------------

    def on_circuit_start(self, state: RoutingState) -> None:
        self._decay = DecayTable(state.circuit.num_qubits, self.decay_increment)
        self._stall_counter = 0

    def on_gate_executed(self, state: RoutingState, index: int) -> None:
        self._decay.reset_all()
        self._stall_counter = 0

    def on_swap_applied(self, state: RoutingState, swap: tuple[int, int]) -> None:
        logical_at = state.layout.logical_at
        for physical in swap:
            logical = logical_at[physical]
            if logical is not None:
                self._decay.bump(logical)
        self._stall_counter += 1

    # -- cost --------------------------------------------------------------

    def _extended_set(self, state: RoutingState) -> list[int]:
        """The next ``extended_set_size`` two-qubit gates after the front layer."""
        extended: list[int] = []
        visited: set[int] = set()
        is_2q = state.is_2q
        successors_of = state.dag.successors
        executed = state.executed
        frontier = sorted(state.front)
        while frontier and len(extended) < self.extended_set_size:
            next_frontier: list[int] = []
            for index in frontier:
                for successor in successors_of(index):
                    if successor in visited or successor in executed:
                        continue
                    visited.add(successor)
                    next_frontier.append(successor)
                    if is_2q[successor]:
                        extended.append(successor)
                        if len(extended) >= self.extended_set_size:
                            break
                if len(extended) >= self.extended_set_size:
                    break
            frontier = next_frontier
        return extended

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        front = state.unresolved_front()
        if not front:
            raise RouterError("sabre stalled with no unresolved front gates")

        if (
            self.release_valve_threshold
            and self._stall_counter >= self.release_valve_threshold
        ):
            return self._release_valve_swap(state, front)

        candidates = state.candidate_swaps()
        if not candidates:
            raise RouterError("no candidate SWAPs available")
        extended = self._extended_set(state)

        logical_at = state.layout.logical_at
        front_sum = PairDeltaScorer.for_gates(state, front).swapped_sum
        extended_sum = PairDeltaScorer.for_gates(state, extended).swapped_sum
        front_size = len(front)
        extended_size = len(extended)
        weight = self.extended_set_weight
        decay_get = self._decay.get

        best_cost = float("inf")
        best: list[tuple[int, int]] = []
        for candidate in candidates:
            a, b = candidate
            front_cost = front_sum(a, b) / front_size
            extended_cost = 0.0
            if extended_size:
                extended_cost = weight * extended_sum(a, b) / extended_size
            decay_a = decay_get(logical_at[a], 1.0)
            decay_b = decay_get(logical_at[b], 1.0)
            max_decay = decay_a if decay_a >= decay_b else decay_b
            cost = max_decay * (front_cost + extended_cost)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = [candidate]
            elif abs(cost - best_cost) <= 1e-12:
                best.append(candidate)
        state.cost_evaluations += len(candidates)
        return best[0] if len(best) == 1 else self._rng.choice(best)

    def _release_valve_swap(
        self, state: RoutingState, front: list[int]
    ) -> tuple[int, int]:
        """Force a SWAP along the shortest path of the most blocked front gate."""
        target = min(front, key=lambda index: state.gate_distance(index))
        q1, q2 = state.op_pairs[target]
        p1 = state.layout.phys_of[q1]
        p2 = state.layout.phys_of[q2]
        path = self.coupling.shortest_path(p1, p2)
        return (min(path[0], path[1]), max(path[0], path[1]))


@register_router(
    "lightsabre",
    description="LightSABRE refinement: SABRE cost plus release-valve escapes",
)
class LightSabreRouter(SabreRouter):
    """LightSABRE: SABRE with the release-valve forced-progress mechanism."""

    name = "lightsabre"
    release_valve_threshold = 12
