"""SABRE-style routing (Li et al., ASPLOS'19) and its LightSABRE refinement.

SABRE splits the not-yet-executed circuit into a *front layer* ``F`` and a
fixed-size *extended layer* ``E`` of upcoming two-qubit gates and evaluates
candidate SWAPs with the cost::

    H(s) = max(decay_q1, decay_q2) * ( sum_{g in F} D[phi_s] / |F|
                                       + W * sum_{g in E} D[phi_s] / |E| )

where ``W < 1`` weighs the look-ahead contribution and the decay factor
discourages thrashing the same qubit.  ``LightSabreRouter`` uses the same
cost and opens the engine's release valve early (as the Qiskit implementation
does: after 12 SWAPs without progress, SWAPs are forced along the shortest
path of the closest front gate), which keeps runtimes low on adversarial
instances.

The extended set is built once per front layer (``on_front_layer``).  Both
layer sums are scored with one :class:`~repro.routing.engine.PairDeltaScorer`
each, built per stall, so a candidate only re-reads the pairs on its two
qubits; no tentative layout is materialised per candidate.  The decay values
are the engine's ``state.decay`` table.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.routing.engine import PairDeltaScorer, RoutingEngine, RoutingState


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

    def on_front_layer(self, state: RoutingState) -> None:
        self._extended = self._extended_set(state)

    def swap_costs(self, state: RoutingState, candidates: list) -> list[float]:
        front = state.unresolved_front()
        extended = self._extended

        logical_at = state.layout.logical_at
        front_sum = PairDeltaScorer.for_gates(state, front).swapped_sum
        extended_sum = PairDeltaScorer.for_gates(state, extended).swapped_sum
        front_size = len(front)
        extended_size = len(extended)
        weight = self.extended_set_weight
        decay_get = state.decay.get

        costs = []
        for a, b in candidates:
            front_cost = front_sum(a, b) / front_size
            extended_cost = 0.0
            if extended_size:
                extended_cost = weight * extended_sum(a, b) / extended_size
            decay_a = decay_get(logical_at[a], 1.0)
            decay_b = decay_get(logical_at[b], 1.0)
            max_decay = decay_a if decay_a >= decay_b else decay_b
            costs.append(max_decay * (front_cost + extended_cost))
        return costs


@register_router(
    "lightsabre",
    description="LightSABRE refinement: SABRE cost plus release-valve escapes",
)
class LightSabreRouter(SabreRouter):
    """LightSABRE: SABRE with the engine's release valve open after 12 stalled SWAPs."""

    name = "lightsabre"
    release_valve_threshold = 12
