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

from collections import deque
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
    def num_layers(self) -> int:
        """Number of dependence-distance layers in the window."""
        return len(self.layers)

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
    front_two_qubit = [index for index in sorted(state.front) if is_2q[index]]
    if front_only or not front_two_qubit:
        return LookaheadWindow([front_two_qubit] if front_two_qubit else [])

    target = window_size(state, lookahead_constant, cap)
    level: dict[int, int] = {}  # window gate -> layer
    collected_two_qubit = 0

    # Seed with every unexecuted front gate (level 1).
    queue: deque[int] = deque()
    for index in sorted(state.front):
        level[index] = 1
        queue.append(index)
        if is_2q[index]:
            collected_two_qubit += 1

    # Expand in topological order while the two-qubit budget lasts.  A
    # successor's unexecuted predecessors are counted by the engine already
    # (``pending_predecessors``); window gates are unexecuted, so their
    # successors are too.
    pending = state.pending_predecessors
    successors_of = state.dag.successors
    predecessors_of = state.dag.predecessors
    remaining_preds: dict[int, int] = {}
    while queue and collected_two_qubit < target:
        current = queue.popleft()
        for successor in successors_of(current):
            if successor in level:
                continue
            remaining = remaining_preds.get(successor, pending[successor]) - 1
            remaining_preds[successor] = remaining
            if remaining > 0:
                continue
            level[successor] = 1 + max(
                (level[p] for p in predecessors_of(successor) if p in level), default=0
            )
            queue.append(successor)
            if is_2q[successor]:
                collected_two_qubit += 1
                if collected_two_qubit >= target:
                    break

    layers: dict[int, list[int]] = {}
    for index, lvl in level.items():
        if is_2q[index]:
            layers.setdefault(lvl, []).append(index)
    return LookaheadWindow([sorted(layers[lvl]) for lvl in sorted(layers)])
