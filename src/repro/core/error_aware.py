"""Error-aware variant of the Qlosure router (the paper's future-work direction).

The conclusion of the paper names "qubit-state and error-aware mapping
heuristics" as the natural next step for Qlosure.  This module implements the
straightforward instantiation of that idea: the hop-count distance matrix
``Dphys`` inside the ``M(s)`` cost is replaced by an *error distance* in
which each coupling edge is weighted by the log-infidelity of the SWAP that
would cross it (see
:func:`repro.hardware.noise.error_weighted_distance`).  Routes through
well-calibrated couplers thus become cheaper than equally short routes
through noisy ones, while the dependence weights and layered look-ahead of
the base algorithm are unchanged.
"""

from __future__ import annotations

from repro.core.config import QlosureConfig
from repro.core.router import QlosureRouter
from repro.hardware.coupling import CouplingGraph
from repro.hardware.noise import NoiseModel, error_weighted_distance, success_probability
from repro.routing.engine import RoutingState
from repro.routing.result import RoutingResult


class ErrorAwareQlosureRouter(QlosureRouter):
    """Qlosure with an error-weighted distance matrix in the cost function."""

    name = "qlosure-error-aware"

    def __init__(
        self,
        coupling: CouplingGraph,
        noise: NoiseModel | None = None,
        config: QlosureConfig | None = None,
    ):
        super().__init__(coupling, config)
        self.noise = noise or NoiseModel.synthetic(coupling)
        self._error_distance = error_weighted_distance(coupling, self.noise)

    def on_circuit_start(self, state: RoutingState) -> None:
        super().on_circuit_start(state)
        # Swap-cost evaluation reads state.distance; connectivity checks still
        # use the coupling graph itself, so correctness is unaffected.
        state.distance = self._error_distance

    def run(self, circuit, initial_layout=None) -> RoutingResult:
        result = super().run(circuit, initial_layout)
        result.metadata["estimated_success_probability"] = success_probability(
            result.routed_circuit, self.noise
        )
        return result

