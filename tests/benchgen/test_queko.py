"""Tests for the QUEKO benchmark generator."""

import pytest

from repro.api import CompileRequest, compile
from repro.benchgen.queko import generate_queko_circuit, queko_dataset
from repro.hardware.topologies import grid_topology, line_topology


GRID = grid_topology(3, 3)


class TestGeneration:
    def test_known_optimal_depth_is_achievable(self):
        """Placing logical qubits at the hidden layout executes the circuit as generated."""
        instance = generate_queko_circuit(GRID, depth=12, seed=3)
        unscrambled = instance.circuit.remapped(instance.hidden_layout)
        # Every two-qubit gate must act on coupled qubits under the hidden layout.
        for gate in unscrambled:
            if gate.is_two_qubit:
                a, b = gate.qubits
                assert b in GRID.neighbors(a)
        assert unscrambled.depth() == instance.optimal_depth

    def test_depth_equals_target(self):
        for depth in (1, 5, 20):
            instance = generate_queko_circuit(GRID, depth=depth, seed=1, scramble=False)
            assert instance.circuit.depth() == depth

    def test_scrambling_preserves_depth(self):
        instance = generate_queko_circuit(GRID, depth=15, seed=2)
        assert instance.circuit.depth() == 15

    def test_determinism(self):
        a = generate_queko_circuit(GRID, depth=10, seed=7)
        b = generate_queko_circuit(GRID, depth=10, seed=7)
        assert a.circuit == b.circuit

    def test_different_seeds_differ(self):
        a = generate_queko_circuit(GRID, depth=10, seed=1)
        b = generate_queko_circuit(GRID, depth=10, seed=2)
        assert a.circuit != b.circuit

    def test_density_controls_gate_count(self):
        sparse = generate_queko_circuit(GRID, depth=20, two_qubit_density=0.2, seed=1)
        dense = generate_queko_circuit(GRID, depth=20, two_qubit_density=0.8, seed=1)
        assert len(dense.circuit) > len(sparse.circuit)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_queko_circuit(GRID, depth=0)
        with pytest.raises(ValueError):
            generate_queko_circuit(GRID, depth=5, two_qubit_density=1.5)

    def test_no_qubit_reused_within_a_cycle(self):
        instance = generate_queko_circuit(GRID, depth=30, seed=5, scramble=False)
        # Depth equals the number of cycles, so no step can have used a qubit twice.
        assert instance.circuit.depth() == 30

    def test_metadata(self):
        instance = generate_queko_circuit(GRID, depth=8, seed=0, name="bench")
        assert instance.name == "bench"
        assert instance.num_qubits == 9
        assert instance.num_operations == len(instance.circuit)


class TestRoutingQueko:
    def test_routed_depth_is_at_least_optimal(self):
        line = line_topology(9)
        instance = generate_queko_circuit(GRID, depth=8, seed=4)
        result = compile(
            CompileRequest(
                circuit=instance.circuit, backend=line, router="qlosure", validation="full"
            )
        )
        assert result.routed_depth >= instance.optimal_depth


class TestDataset:
    def test_dataset_sizes(self):
        dataset = queko_dataset("16qbt", depths=[5, 10], circuits_per_depth=3)
        assert len(dataset) == 6
        assert all(inst.num_qubits == 16 for inst in dataset)

    def test_dataset_names_encode_depth(self):
        dataset = queko_dataset("16qbt", depths=[5], circuits_per_depth=1)
        assert "d5" in dataset[0].name

    def test_81qbt_dataset_uses_king_grid(self):
        dataset = queko_dataset("81qbt", depths=[4], circuits_per_depth=1)
        assert dataset[0].num_qubits == 81

    def test_unknown_size_rejected(self):
        with pytest.raises(KeyError):
            queko_dataset("33qbt")
