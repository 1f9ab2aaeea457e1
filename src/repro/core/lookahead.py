"""Look-ahead window construction and layering by dependence distance.

The Qlosure heuristic evaluates candidate SWAPs against a *look-ahead window*
``Lw`` of the topologically earliest ``k = c * n_f`` gates that are not yet
executed, organised into layers ``G_1, G_2, ...`` where ``G_1`` is the front
layer and ``G_{l+1}`` contains gates that become executable only after all
gates of ``G_l`` (the dependence distance from the front).  Only two-qubit
gates matter for routing cost, so single-qubit gates are skipped when filling
the window (they still participate in the dependence structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.engine import RoutingState


@dataclass
class LookaheadWindow:
    """The layered look-ahead window used by the cost function.

    ``layers[l]`` holds the circuit gate indices at dependence distance
    ``l + 1`` from the front (so ``layers[0]`` is the front layer itself).
    """

    layers: list[list[int]] = field(default_factory=list)

    @property
    def num_gates(self) -> int:
        """Total number of gates across all layers."""
        return sum(len(layer) for layer in self.layers)

    def gates(self) -> list[int]:
        """All gate indices in the window, front layer first."""
        return [index for layer in self.layers for index in layer]

    def __iter__(self):
        return iter(self.layers)


def window_size(state: RoutingState, lookahead_constant: int, cap: int) -> int:
    """The dynamic window size ``k = c * n_f`` (capped)."""
    front_qubits = state.front_physical_qubits()
    n_front = max(len(front_qubits), 1)
    return min(lookahead_constant * n_front, cap)


def build_lookahead(
    state: RoutingState,
    lookahead_constant: int,
    cap: int = 512,
    front_only: bool = False,
) -> LookaheadWindow:
    """Build the layered look-ahead window from the current routing state.

    The window is grown by simulating dependence-readiness (ignoring
    connectivity): starting from the unexecuted front-layer gates, gates whose
    unexecuted predecessors are all inside the window are added in topological
    order until ``k`` two-qubit gates have been collected.  Each gate's layer
    is one plus the maximum layer of its in-window predecessors.
    """
    is_2q = state.is_2q
    front = sorted(state.front)
    front_two_qubit = [index for index in front if is_2q[index]]
    if front_only or not front_two_qubit:
        return LookaheadWindow([front_two_qubit] if front_two_qubit else [])

    target = window_size(state, lookahead_constant, cap)
    collected_two_qubit = len(front_two_qubit)
    layers = [front_two_qubit]

    # Expand layer by layer while the two-qubit budget lasts.  A gate joins
    # once its last unexecuted predecessor (``pending_predecessors``) is in the
    # window, one layer below it: layers expand in order, so that one is the
    # deepest.
    pending = state.pending_predecessors
    successors_of = state.dag.successors
    remaining_preds: dict[int, int] = {}
    frontier = front
    while frontier and collected_two_qubit < target:
        next_frontier: list[int] = []
        layer: list[int] = []
        for current in frontier:
            for successor in successors_of(current):
                remaining = remaining_preds.get(successor, pending[successor]) - 1
                remaining_preds[successor] = remaining
                if remaining > 0:
                    continue
                next_frontier.append(successor)
                if is_2q[successor]:
                    layer.append(successor)
                    collected_two_qubit += 1
                    if collected_two_qubit >= target:
                        break
            if collected_two_qubit >= target:
                break
        if layer:
            layers.append(sorted(layer))
        frontier = next_frontier
    return LookaheadWindow(layers)
