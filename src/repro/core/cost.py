"""The Qlosure SWAP-cost heuristic ``M(s)`` (Eq. 2 of the paper).

For a candidate SWAP ``s = (p1, p2)`` and tentative mapping ``phi_s``::

    M(s) = max(delta_p1, delta_p2) * sum_l ( Gamma_l / |G_l| )
    Gamma_l = sum_{g in G_l} omega_g * D[phi_s(g.q1), phi_s(g.q2)] / l

where ``G_l`` is the set of two-qubit gates at dependence distance ``l`` from
the front layer, ``omega_g`` the transitive dependence weight (at least 1),
``D`` the physical distance matrix and ``delta`` the SABRE-style decay values
of the logical qubits the SWAP moves.  The ablation switches in
:class:`~repro.core.config.QlosureConfig` disable individual factors.

:class:`WindowScorer` computes the layer sum ``base`` once per stall and
indexes every window gate by its two physical operands, with its weight
``w = omega_g / (l * |G_l|)`` and current distance.  A candidate ``(a, b)``
only moves the gates with an operand on ``a`` or ``b``, so it scores as
``(base + sum w * (new - old)) * max(delta)`` over those entries: O(gates
on the two swapped qubits), with no tentative layout materialised.  The
base is summed layer by layer as the formula reads; the delta form can
differ from a fresh per-layer summation in the last bits, which the
engine's ``1e-12`` tie tolerance absorbs, so the committed SWAP is the same.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow
from repro.routing.engine import RoutingState


def tentative_physical(
    state: RoutingState, logical: int, swap: tuple[int, int]
) -> int:
    """Physical location of ``logical`` under the tentative mapping ``phi o s``."""
    current = state.layout.phys_of[logical]
    p1, p2 = swap
    if current == p1:
        return p2
    if current == p2:
        return p1
    return current


class WindowScorer:
    """Incremental evaluator of ``M(s)`` over a fixed look-ahead window."""

    def __init__(
        self,
        state: RoutingState,
        window: LookaheadWindow,
        weights: Mapping[int, int],
        decay,
        config: QlosureConfig,
    ):
        self._state = state
        self._decay = decay if config.use_decay else None
        distance = self._distance = state.distance_rows()
        # Physical qubit -> ``(other endpoint, w, old distance)`` per window
        # gate on it, where ``w`` is the gate's term weight in the layer sum.
        # The distances are memoised at build time -- the scorer lives for
        # exactly one stall, during which the layout is frozen.
        touching: defaultdict[int, list[tuple[int, float, int]]] = defaultdict(list)
        phys_of = state.layout.phys_of
        op_pairs = state.op_pairs
        use_weights = config.use_dependence_weights
        use_discount = config.use_layer_discount
        normalize = config.use_layer_normalization
        weights_get = weights.get
        base = 0.0
        for layer_index, layer in enumerate(window.layers, start=1):
            if not layer:
                continue
            size = len(layer)
            gamma = 0.0
            for gate_index in layer:
                q1, q2 = op_pairs[gate_index]
                p1 = phys_of[q1]
                p2 = phys_of[q2]
                omega = weights_get(gate_index, 0) if use_weights else 1
                factor = float(omega) if omega > 1 else 1.0
                if use_discount:
                    factor /= layer_index
                old = distance[p1][p2]
                gamma += factor * old
                w = factor / size if normalize else factor
                touching[p1].append((p2, w, old))
                touching[p2].append((p1, w, old))
            base += gamma / size if normalize else gamma
        self._base = base
        self._touching = touching

    def base_score(self) -> float:
        """The layer-sum part of the score under the *current* mapping (no SWAP)."""
        return self._base

    def score(self, swap: tuple[int, int]) -> float:
        """Evaluate ``M(swap)`` against the window."""
        p1, p2 = swap
        touching = self._touching
        delta = 0.0
        entries = touching.get(p1)
        if entries:
            row = self._distance[p2]
            for other, w, old in entries:
                if other != p2:
                    delta += w * (row[other] - old)
        entries = touching.get(p2)
        if entries:
            row = self._distance[p1]
            for other, w, old in entries:
                if other != p1:
                    delta += w * (row[other] - old)
        layer_sum = self._base + delta
        decay = self._decay
        if decay is None:
            return layer_sum
        logical_at = self._state.layout.logical_at
        d1 = decay.get(logical_at[p1], 1.0)
        d2 = decay.get(logical_at[p2], 1.0)
        return (d1 if d1 >= d2 else d2) * layer_sum


def swap_cost(
    state: RoutingState,
    swap: tuple[int, int],
    window: LookaheadWindow,
    weights: Mapping[int, int],
    decay,
    config: QlosureConfig,
) -> float:
    """Evaluate the composite cost ``M(s)`` of a single candidate SWAP.

    Convenience wrapper over :class:`WindowScorer` for callers scoring one
    candidate at a time (tests, documentation examples); the router uses a
    shared scorer per stall for efficiency.
    """
    return WindowScorer(state, window, weights, decay, config).score(swap)
