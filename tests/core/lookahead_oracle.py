"""The look-ahead window built the way the definition reads: the test oracle.

``repro.core.lookahead.build_lookahead`` assigns a gate's layer from the
queue order of its one BFS pass.  This module keeps the direct form of the
same definition: after the BFS admits a gate, its layer is one plus the
maximum layer over its in-window predecessors, read back from the DAG, and
the layers are grouped from the level table at the end.  The tests check that
both give equal windows at every stall of Qlosure routes.
"""

from __future__ import annotations

from collections import deque

from repro.core.lookahead import LookaheadWindow, window_size


def build_lookahead(
    state, lookahead_constant: int, cap: int = 512, front_only: bool = False
) -> LookaheadWindow:
    """The layered look-ahead window of ``state`` (reference construction)."""
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

    # Expand in topological order while the two-qubit budget lasts.
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
