"""Configuration of the Qlosure mapper, including the ablation switches.

The default configuration corresponds to the full mapper evaluated in the
paper (dependence weights + layer discount + layer normalisation + decay,
with the identity initial layout).  The ablation variants of Fig. 8 are
obtained through the ``variant`` class methods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class QlosureConfig:
    """Tuning knobs of the Qlosure SWAP-selection heuristic.

    Attributes:
        lookahead_constant: the constant ``c`` in the dynamic window size
            ``k = c * n_f``; ``None`` means "device max degree + 1" as the
            paper prescribes (the constant must exceed the maximum degree of
            the coupling graph).
        max_lookahead_gates: hard cap on the number of two-qubit gates in the
            look-ahead window (keeps cost evaluation bounded on very wide
            circuits).
        use_dependence_weights: weight each window gate by its transitive
            dependent count ``omega`` (the paper's key ingredient).
        use_layer_discount: divide each gate's contribution by its layer
            depth ``l``.
        use_layer_normalization: divide each layer's contribution by its
            size ``|G_l|``.
        use_decay: multiply the score by the SABRE-style decay factor
            ``max(delta_q1, delta_q2)``.
        decay_increment: additive decay penalty applied to the two logical
            qubits of a committed SWAP (the routing engine resets every decay
            value to 1 whenever a two-qubit gate executes, as in the paper).
        lookahead_only_front: restrict the window to the front layer
            (the "distance-only"/window-size-1 ablation).
        seed: RNG seed used for random tie-breaking among equal-cost SWAPs.
    """

    lookahead_constant: int | None = None
    max_lookahead_gates: int = 512
    use_dependence_weights: bool = True
    use_layer_discount: bool = True
    use_layer_normalization: bool = True
    use_decay: bool = True
    decay_increment: float = 0.001
    lookahead_only_front: bool = False
    seed: int = 0

    # -- ablation variants (Fig. 8) -----------------------------------------

    @classmethod
    def full(cls, **overrides) -> "QlosureConfig":
        """The full Qlosure configuration (paper default)."""
        return replace(cls(), **overrides)

    @classmethod
    def distance_only(cls, **overrides) -> "QlosureConfig":
        """Ablation (a): Manhattan/graph distance on the front layer only."""
        return replace(
            cls(
                use_dependence_weights=False,
                use_layer_discount=False,
                use_layer_normalization=False,
                use_decay=False,
                lookahead_only_front=True,
            ),
            **overrides,
        )

    @classmethod
    def layer_adjusted(cls, **overrides) -> "QlosureConfig":
        """Ablation (b): layered look-ahead with 1/l discounts but no omega weights."""
        return replace(
            cls(use_dependence_weights=False),
            **overrides,
        )

    @classmethod
    def dependency_weighted(cls, **overrides) -> "QlosureConfig":
        """Ablation (c): the full cost function with transitive dependence weights."""
        return replace(cls(), **overrides)

    def effective_lookahead_constant(self, device_max_degree: int) -> int:
        """Resolve the window constant ``c`` for a device (must exceed its max degree)."""
        if self.lookahead_constant is not None:
            return max(self.lookahead_constant, 1)
        return device_max_degree + 1
