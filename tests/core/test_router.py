"""Tests for the Qlosure router, its bidirectional layout search and its compile path."""

from repro.api import CompileRequest, compile
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.validation import verify_routing
from repro.core.config import QlosureConfig
from repro.core.router import QlosureRouter
from repro.hardware.topologies import grid_topology, line_topology
from repro.routing.layout import Layout


GRID = grid_topology(4, 4)


class TestRouterCorrectness:
    def test_trivial_circuit(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        result = QlosureRouter(line5).run(circuit)
        assert result.swaps_added == 0

    def test_far_cnot_minimal_swaps(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        result = QlosureRouter(line5).run(circuit)
        assert result.swaps_added == 3
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)

    def test_paper_example_is_routed_correctly(
        self, paper_example_circuit, paper_example_device
    ):
        result = QlosureRouter(paper_example_device).run(paper_example_circuit)
        verify_routing(
            paper_example_circuit,
            result.routed_circuit,
            paper_example_device.edges(),
            result.initial_layout,
        )
        assert result.swaps_added >= 1

    def test_qft_routing_is_valid(self):
        circuit = qft_circuit(8)
        result = QlosureRouter(GRID).run(circuit)
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    def test_random_circuit_routing_is_valid(self):
        circuit = random_circuit(10, 80, seed=11)
        result = QlosureRouter(GRID).run(circuit)
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    def test_all_ablation_variants_route_correctly(self):
        circuit = random_circuit(9, 50, seed=5)
        for config in (
            QlosureConfig.distance_only(),
            QlosureConfig.layer_adjusted(),
            QlosureConfig.dependency_weighted(),
        ):
            result = QlosureRouter(GRID, config).run(circuit)
            verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    def test_deterministic_given_seed(self):
        circuit = random_circuit(8, 60, seed=2)
        first = QlosureRouter(GRID, QlosureConfig(seed=42)).run(circuit)
        second = QlosureRouter(GRID, QlosureConfig(seed=42)).run(circuit)
        assert first.routed_circuit == second.routed_circuit

    def test_custom_initial_layout(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = QlosureRouter(line5).run(circuit, Layout(2, 5, {0: 0, 1: 4}))
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)
        assert result.swaps_added == 3


class TestMapper:
    def test_validation_flag(self):
        result = compile(
            CompileRequest(circuit=qft_circuit(6), backend=GRID, validation="full")
        )
        assert result.router == "qlosure"
        assert result.swaps_added >= 0

    def test_bidirectional_mapping_is_valid(self):
        circuit = random_circuit(8, 40, seed=9)
        result = compile(
            CompileRequest(
                circuit=circuit,
                backend=GRID,
                router="qlosure",
                placement="bidirectional",
                placement_options={"passes": 1},
                validation="full",
            )
        )
        assert result.swaps_added >= 0


class TestBidirectional:
    def test_zero_passes_is_identity_layout(self):
        layout = QlosureRouter(GRID).bidirectional_layout(ghz_circuit(5), passes=0)
        assert layout.as_list() == list(range(5))

    def test_layout_is_valid_placement(self):
        circuit = random_circuit(10, 60, seed=4)
        layout = QlosureRouter(GRID).bidirectional_layout(circuit, passes=1)
        placed = layout.as_list()
        assert len(set(placed)) == circuit.num_qubits
        assert all(0 <= p < GRID.num_qubits for p in placed)

    def test_bidirectional_layout_not_worse_on_average(self):
        """A forward/backward pass should help (or at least not badly hurt) QFT routing."""
        circuit = qft_circuit(8)
        trivial = QlosureRouter(GRID).run(circuit).swaps_added
        improved_layout = QlosureRouter(GRID).bidirectional_layout(circuit, passes=1)
        improved = QlosureRouter(GRID).run(circuit, improved_layout).swaps_added
        assert improved <= trivial * 1.25


class TestReleaseValve:
    """Inputs on which Qlosure cycled until the SWAP budget raised."""

    def test_high_decay_random_circuit_routes(self):
        result = compile(
            CompileRequest(
                circuit=random_circuit(20, 500, seed=9),
                backend="ankaa3",
                router="qlosure",
                router_config=QlosureConfig.full(decay_increment=0.01),
                validation="full",
            ),
            cache=False,
        )
        assert result.swaps_added > 0

    def test_deep_queko_circuit_under_the_identity_placement_routes(self):
        # Fig. 5 and Tables II-IV route it at REPRO_BENCH_SCALE=10.
        circuit = generate_queko_circuit(grid_topology(6, 9), 150, seed=5551).circuit
        result = compile(
            CompileRequest(
                circuit=circuit, backend="sherbrooke", router="qlosure", validation="full"
            ),
            cache=False,
        )
        assert result.swaps_added > 0
