"""The Qlosure SWAP-cost heuristic ``M(s)`` (Eq. 2 of the paper).

For a candidate SWAP ``s = (p1, p2)`` and tentative mapping ``phi_s``::

    M(s) = max(delta_p1, delta_p2) * sum_l ( Gamma_l / |G_l| )
    Gamma_l = sum_{g in G_l} omega_g * D[phi_s(g.q1), phi_s(g.q2)] / l

where ``G_l`` is the set of two-qubit gates at dependence distance ``l`` from
the front layer, ``omega_g`` the transitive dependence weight (at least 1),
``D`` the physical distance matrix and ``delta`` the SABRE-style decay values
of the logical qubits the SWAP moves.  The ablation switches in
:class:`~repro.core.config.QlosureConfig` disable individual factors.

:class:`WindowScorer` lives for one look-ahead window (one front layer).  It
lists the window's gates once, with their weight ``w = omega_g / (l * |G_l|)``,
indexed by *logical* operand; :meth:`WindowScorer.rebase` reads their current
distances and sums ``base`` layer by layer, as the formula reads, once per
stall.  A candidate ``(a, b)`` only moves the gates with an operand on ``a``
or ``b``, so it scores as ``(base + sum w * (new - old)) * max(delta)`` over
the entries of the two logical qubits there: O(gates on the two swapped
qubits), with no tentative layout materialised.  The delta form can differ
from a fresh per-layer summation in the last bits, which the engine's
``1e-12`` tie tolerance absorbs, so the committed SWAP is the same.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow
from repro.routing.engine import RoutingState


class WindowScorer:
    """``M(s)`` over one look-ahead window; :meth:`rebase` at each stall, then score."""

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
        self._normalize = normalize = config.use_layer_normalization
        op_pairs = state.op_pairs
        use_weights = config.use_dependence_weights
        use_discount = config.use_layer_discount
        weights_get = weights.get
        # Per layer, ``(q1, q2, factor)`` per gate; per logical qubit,
        # ``(other operand, w, slot)`` per window gate on it, where ``w`` is
        # the gate's term weight in the layer sum and ``slot`` its position.
        layers: list[list[tuple[int, int, float]]] = []
        partners: defaultdict[int, list[tuple[int, float, int]]] = defaultdict(list)
        slot = 0
        for layer_index, layer in enumerate(window.layers, start=1):
            if not layer:
                continue
            size = len(layer)
            gates = []
            for gate_index in layer:
                q1, q2 = op_pairs[gate_index]
                omega = weights_get(gate_index, 0) if use_weights else 1
                factor = float(omega) if omega > 1 else 1.0
                if use_discount:
                    factor /= layer_index
                gates.append((q1, q2, factor))
                w = factor / size if normalize else factor
                partners[q1].append((q2, w, slot))
                partners[q2].append((q1, w, slot))
                slot += 1
            layers.append(gates)
        self._layers = layers
        self._partners = partners

    def rebase(self) -> None:
        """Read the window's distances under the current layout (once per stall)."""
        state = self._state
        distance = self._distance = state.distance_rows()
        phys_of = self._phys_of = state.layout.phys_of
        self._logical_at = state.layout.logical_at
        normalize = self._normalize
        old = self._old = []
        base = 0.0
        for gates in self._layers:
            gamma = 0.0
            for q1, q2, factor in gates:
                current = distance[phys_of[q1]][phys_of[q2]]
                old.append(current)
                gamma += factor * current
            base += gamma / len(gates) if normalize else gamma
        self._base = base

    def score(self, swap: tuple[int, int]) -> float:
        """Evaluate ``M(swap)`` against the window."""
        p1, p2 = swap
        partners = self._partners
        phys_of = self._phys_of
        old = self._old
        logical_at = self._logical_at
        q1 = logical_at[p1]
        q2 = logical_at[p2]
        delta = 0.0
        entries = partners.get(q1)
        if entries:
            row = self._distance[p2]
            for other, w, slot in entries:
                other = phys_of[other]
                if other != p2:
                    delta += w * (row[other] - old[slot])
        entries = partners.get(q2)
        if entries:
            row = self._distance[p1]
            for other, w, slot in entries:
                other = phys_of[other]
                if other != p1:
                    delta += w * (row[other] - old[slot])
        layer_sum = self._base + delta
        decay = self._decay
        if decay is None:
            return layer_sum
        d1 = decay.get(q1, 1.0)
        d2 = decay.get(q2, 1.0)
        return (d1 if d1 >= d2 else d2) * layer_sum
