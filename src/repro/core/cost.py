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

Most of a candidate's delta survives the next SWAP of its layer:
:meth:`WindowScorer.costs` keeps the previous stall's deltas and recomputes
only the candidates on a qubit the SWAP dirtied (see its docstring), so a
stall pays for what the last SWAP changed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow
from repro.routing.engine import RoutingState


class WindowScorer:
    """``M(s)`` over one look-ahead window: :meth:`rebase` at each stall, then :meth:`costs`.

    The scorer lives for one front layer and keeps, from the previous stall
    it scored, the candidate list and each candidate's delta and decay
    factor by position; it writes no per-candidate map at a layer's first
    stall, so a layer of one stall pays nothing for the reuse.
    """

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
        # The candidate list the last :meth:`costs` call scored, its terms by
        # position, and the stall record's SWAP count at that call.
        self._scored: list[tuple[int, int]] | None = None
        self._kept: list[tuple[float, float]] = []
        self._scored_at = -1

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

    def _terms(self, p1: int, p2: int) -> tuple[float, float]:
        """``(delta, factor)`` of the SWAP ``(p1, p2)``: it costs ``factor * (base + delta)``.

        ``delta`` is the change of the layer sum and ``factor`` the larger
        decay of the two logical qubits the SWAP moves (1.0 without decay,
        which leaves the layer sum exact).
        """
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
        decay = self._decay
        if decay is None:
            return delta, 1.0
        d1 = decay.get(q1, 1.0)
        d2 = decay.get(q2, 1.0)
        return delta, (d1 if d1 >= d2 else d2)

    def score(self, swap: tuple[int, int]) -> float:
        """Evaluate ``M(swap)`` against the window."""
        delta, factor = self._terms(*swap)
        return factor * (self._base + delta)

    def _dirty(self, p1: int, p2: int) -> set[int]:
        """The physical qubits whose candidates' terms the SWAP ``(p1, p2)`` changed.

        ``p1``, ``p2`` and the current positions of the window partners of
        the two logical qubits the SWAP moved.  A candidate on none of them
        has the same two logical qubits, partner positions and ``old``
        distances as before the SWAP, so its delta is the same floats summed
        in the same order.
        """
        dirty = {p1, p2}
        partners = self._partners
        phys_of = self._phys_of
        logical_at = self._logical_at
        for moved in (p1, p2):
            entries = partners.get(logical_at[moved])
            if entries:
                for other, _, _ in entries:
                    dirty.add(phys_of[other])
        return dirty

    def costs(self, candidates: list[tuple[int, int]]) -> list[float]:
        """``M(s)`` of every candidate, in candidate order (after :meth:`rebase`).

        When exactly one SWAP was committed since the previous call, the
        terms (:meth:`_terms`) of the candidates on no dirty qubit
        (:meth:`_dirty`) are taken from that call: by position when the
        engine kept its candidate list (the object is the same), else through
        a map of the previous list.  The SWAP bumped the decay of its two
        logical qubits only, so a kept factor is current too.  The first call
        of a layer computes every term.  So does a call after a gap of
        several SWAPs in the stall record (``swaps_since_progress``), which
        :meth:`~repro.routing.engine.RoutingEngine.run` never makes: two
        scored stalls of its layers are one SWAP apart.  The check guards a
        router that commits SWAPs outside ``select_swap``.  Each cost is
        ``factor * (base + delta)`` as in :meth:`score`, so the costs are
        bit-identical to a fresh scorer's.  The number of kept terms is added
        to ``state.deltas_reused``.
        """
        state = self._state
        terms_of = self._terms
        previous = self._scored
        swaps = state.swaps_since_progress
        if previous is None or swaps != self._scored_at + 1:
            terms = [terms_of(a, b) for a, b in candidates]
        else:
            dirty = self._dirty(*state.last_swap)
            if candidates is previous:
                kept = self._kept
            else:
                kept = map(dict(zip(previous, self._kept)).get, candidates)
            terms = []
            fresh = 0
            for candidate, entry in zip(candidates, kept):
                a, b = candidate
                if entry is None or a in dirty or b in dirty:
                    entry = terms_of(a, b)
                    fresh += 1
                terms.append(entry)
            state.deltas_reused += len(candidates) - fresh
        self._scored = candidates
        self._kept = terms
        self._scored_at = swaps
        base = self._base
        return [factor * (base + delta) for delta, factor in terms]
