"""The Qlosure routing engine (Algorithm 1 of the paper).

The router plugs the dependence-driven cost function into the shared
execute-or-swap loop: once per front layer it builds the layered look-ahead
window and the window's scorer, and at every stall of that layer it scores
every candidate SWAP with ``M(s)``; the engine commits the cheapest one
(ties broken at random).  The SABRE-style decay values it multiplies in are
the engine's ``state.decay`` table, bumped by ``config.decay_increment``.
"""

from __future__ import annotations

from repro.api.registry import register_router
from repro.core.config import QlosureConfig
from repro.core.cost import WindowScorer
from repro.core.lookahead import build_lookahead
from repro.hardware.coupling import CouplingGraph
from repro.routing.engine import RoutingEngine, RoutingState


@register_router(
    "qlosure",
    config_class=QlosureConfig,
    kind="qlosure",
    description="dependence-driven layered look-ahead cost M(s) (the paper's mapper)",
)
class QlosureRouter(RoutingEngine):
    """Dependence-driven SWAP insertion using the ``M(s)`` cost function."""

    name = "qlosure"

    def __init__(
        self,
        coupling: CouplingGraph,
        config: QlosureConfig | None = None,
    ):
        self.config = config or QlosureConfig()
        super().__init__(coupling, seed=self.config.seed)
        self.decay_increment = self.config.decay_increment
        self._lookahead_constant = self.config.effective_lookahead_constant(
            coupling.max_degree()
        )
        self._weights: dict[int, int] = {}
        self._scorer: WindowScorer | None = None

    # -- engine hooks -----------------------------------------------------------

    def on_circuit_start(self, state: RoutingState) -> None:
        """Read the transitive dependence weights ``omega`` (Eq. 1) once per circuit.

        ``omega(g)`` is the number of gates reachable from ``g`` in the
        engine's dependence DAG, counted with bitsets; the polyhedral form of
        Eq. 1 is the test oracle these counts are checked against.
        """
        self._weights = state.dag.descendant_counts()

    def on_front_layer(self, state: RoutingState) -> None:
        """Build the layer's look-ahead window and its ``M(s)`` scorer.

        The window's size counts the front's operands and its layering ignores
        connectivity, so SWAPs leave it unchanged for the rest of the layer.
        """
        window = build_lookahead(
            state,
            self._lookahead_constant,
            cap=self.config.max_lookahead_gates,
            front_only=self.config.lookahead_only_front,
        )
        self._scorer = WindowScorer(
            state, window, self._weights, state.decay, self.config
        )

    # -- SWAP selection ------------------------------------------------------------

    def swap_costs(self, state: RoutingState, candidates: list) -> list[float]:
        """Score every candidate SWAP with ``M(s)``."""
        scorer = self._scorer
        scorer.rebase()
        return scorer.costs(candidates)
