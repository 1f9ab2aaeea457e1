"""Tests for circuit metrics."""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.metrics import (
    depth_factor,
    depth_overhead,
    swap_count,
    total_operations,
    two_qubit_gate_count,
)


@pytest.fixture
def sample() -> QuantumCircuit:
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.swap(1, 2)
    circuit.cx(0, 2)
    circuit.barrier()
    circuit.measure(2)
    return circuit


class TestCounts:
    def test_two_qubit_count(self, sample):
        assert two_qubit_gate_count(sample) == 3

    def test_swap_count(self, sample):
        assert swap_count(sample) == 1

    def test_total_operations_excludes_barriers(self, sample):
        assert total_operations(sample) == 5


class TestRatios:
    def test_depth_overhead(self):
        original = QuantumCircuit(2)
        original.cx(0, 1)
        routed = QuantumCircuit(2)
        routed.swap(0, 1)
        routed.cx(0, 1)
        assert depth_overhead(original, routed) == 1

    def test_depth_factor(self):
        assert depth_factor(50, 10) == 5.0

    def test_depth_factor_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            depth_factor(10, 0)
