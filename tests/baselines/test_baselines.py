"""Tests for the baseline mappers."""

import pytest

from repro.api.registry import make_router, router_names
from repro.baselines.cirq_like import CirqLikeRouter
from repro.baselines.greedy import GreedyDistanceRouter
from repro.baselines.qmap_like import QmapLikeRouter
from repro.baselines.sabre import LightSabreRouter, SabreRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.benchgen.qasmbench import qft_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.validation import verify_routing
from repro.hardware.topologies import grid_topology, line_topology


GRID = grid_topology(4, 4)
ALL_ROUTERS = (
    SabreRouter,
    LightSabreRouter,
    QmapLikeRouter,
    CirqLikeRouter,
    TketLikeRouter,
    GreedyDistanceRouter,
)


class TestAllBaselinesRouteCorrectly:
    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_far_cnot(self, router_cls, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        result = router_cls(line5).run(circuit)
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)
        assert result.swaps_added == 3

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_qft_is_valid(self, router_cls):
        circuit = qft_circuit(7)
        result = router_cls(GRID).run(circuit)
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_random_circuit_is_valid(self, router_cls):
        circuit = random_circuit(10, 60, seed=13)
        result = router_cls(GRID).run(circuit)
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_no_swaps_when_not_needed(self, router_cls, line5):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        result = router_cls(line5).run(circuit)
        assert result.swaps_added == 0

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_mapper_names_are_distinct(self, router_cls):
        assert router_cls.name != "base-router"


class TestSabreSpecifics:
    def test_extended_set_is_bounded(self):
        circuit = random_circuit(10, 120, seed=3)
        router = SabreRouter(GRID)
        result = router.run(circuit)
        assert result.swaps_added > 0

    def test_lightsabre_release_valve_configured(self):
        # LightSABRE opens the valve early as part of its algorithm; every
        # other router keeps the engine's default.
        assert LightSabreRouter.release_valve_threshold == 12
        for router_cls in ALL_ROUTERS:
            if router_cls is not LightSabreRouter:
                assert router_cls.release_valve_threshold == 300

    def test_decay_reset_on_execution(self, line5):
        router = SabreRouter(line5)
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        circuit.cx(0, 4)
        result = router.run(circuit)
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)


class TestQmapSpecifics:
    def test_search_finds_short_swap_sequences(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(1, 3)
        result = QmapLikeRouter(line5).run(circuit)
        assert result.swaps_added == 1

    def test_node_budget_fallback(self):
        router = QmapLikeRouter(GRID)
        router.node_budget = 1  # force the greedy fallback path
        circuit = QuantumCircuit(16)
        circuit.cx(0, 15)
        result = router.run(circuit)
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)


class TestRegistry:
    def test_baseline_names_are_canonical_and_deduped(self):
        names = router_names(kind="baseline")
        assert set(names) == {"sabre", "lightsabre", "qmap", "cirq", "tket", "greedy"}
        # aliases must not show up as duplicate entries
        assert len(names) == len(set(names))
        assert "qmap-like" not in names and "pytket" not in names

    def test_lookup_by_alias(self):
        assert isinstance(make_router("pytket", GRID), TketLikeRouter)
        assert isinstance(make_router("SABRE", GRID), SabreRouter)
        assert isinstance(make_router("qmap-like", GRID), QmapLikeRouter)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_router("nonexistent", GRID)

    def test_qlosure_is_not_a_baseline(self):
        assert "qlosure" not in router_names(kind="baseline")
