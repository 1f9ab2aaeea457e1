"""Tests for the error-aware Qlosure variant."""

import pytest

from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.validation import verify_routing
from repro.core.error_aware import ErrorAwareQlosureRouter
from repro.core.router import QlosureRouter
from repro.hardware.noise import NoiseModel, success_probability
from repro.hardware.topologies import grid_topology


GRID = grid_topology(4, 4)


class TestErrorAwareRouting:
    def test_routing_remains_valid(self):
        circuit = qft_circuit(8)
        router = ErrorAwareQlosureRouter(GRID, NoiseModel.synthetic(GRID, seed=5))
        result = router.run(circuit)
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    def test_success_probability_attached_to_result(self):
        circuit = ghz_circuit(8)
        result = ErrorAwareQlosureRouter(GRID).run(circuit)
        probability = result.metadata["estimated_success_probability"]
        assert 0.0 < probability <= 1.0

    def test_default_noise_model_created(self):
        router = ErrorAwareQlosureRouter(GRID)
        assert router.noise is not None
        assert len(router.noise.two_qubit_error) == GRID.num_edges()

    def test_uniform_noise_matches_plain_qlosure_swaps(self):
        """With identical errors everywhere the error distance is proportional to
        hop count, so the error-aware router makes the same decisions."""
        circuit = qft_circuit(7)
        plain = QlosureRouter(GRID).run(circuit)
        aware = ErrorAwareQlosureRouter(GRID, NoiseModel.uniform(GRID)).run(circuit)
        assert aware.swaps_added == plain.swaps_added

    def test_avoids_poisoned_edge(self):
        """A CNOT between two qubits with one noisy and one clean route should
        be routed over the clean one when error-awareness is on."""
        noise = NoiseModel.uniform(GRID, two_qubit_error=0.01)
        # Poison the straight-line route from 0 to 3 along the top row.
        for edge in ((0, 1), (1, 2), (2, 3)):
            noise.two_qubit_error[edge] = 0.45
        circuit = QuantumCircuit(16)
        circuit.cx(0, 3)
        aware = ErrorAwareQlosureRouter(GRID, noise).run(circuit)
        aware_probability = success_probability(aware.routed_circuit, noise)
        plain = QlosureRouter(GRID).run(circuit)
        plain_probability = success_probability(plain.routed_circuit, noise)
        assert aware_probability >= plain_probability

    def test_name(self):
        assert ErrorAwareQlosureRouter(GRID).name == "qlosure-error-aware"
