"""Property-style routing correctness invariants.

Every router must, for arbitrary circuits on arbitrary connected devices,
produce a routed circuit that (a) only applies two-qubit gates and SWAPs to
physically adjacent qubits and (b) preserves the DAG dependence order of the
original circuit (per-qubit gate traces survive SWAP-stripping and logical
relabelling).  These invariants guard the incremental routing kernel: any
stale cached front-layer state would surface here as a non-adjacent gate or
a reordered dependence.
"""

from __future__ import annotations

import pytest

from repro.baselines.cirq_like import CirqLikeRouter
from repro.baselines.greedy import GreedyDistanceRouter
from repro.baselines.qmap_like import QmapLikeRouter
from repro.baselines.sabre import LightSabreRouter, SabreRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.validation import verify_routing
from repro.core.router import QlosureRouter
from repro.hardware.topologies import grid_topology, line_topology, ring_topology

ROUTERS = [
    GreedyDistanceRouter,
    SabreRouter,
    LightSabreRouter,
    CirqLikeRouter,
    TketLikeRouter,
    QmapLikeRouter,
    QlosureRouter,
]

TOPOLOGIES = {
    "line9": lambda: line_topology(9),
    "ring8": lambda: ring_topology(8),
    "grid3x3": lambda: grid_topology(3, 3),
    "grid4x4": lambda: grid_topology(4, 4),
}


def _route(router_cls, device, circuit):
    if router_cls is QlosureRouter:
        return QlosureRouter(device).run(circuit)
    return router_cls(device).run(circuit)


@pytest.mark.parametrize("router_cls", ROUTERS, ids=lambda cls: cls.name)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES), ids=str)
@pytest.mark.parametrize("seed", [0, 7])
def test_random_circuits_preserve_invariants(router_cls, topology, seed):
    device = TOPOLOGIES[topology]()
    circuit = random_circuit(
        num_qubits=min(8, device.num_qubits), num_gates=60, seed=seed
    )
    result = _route(router_cls, device, circuit)
    # verify_routing checks both invariants: adjacency of every emitted
    # two-qubit gate/SWAP, and per-qubit dependence-order preservation.
    verify_routing(circuit, result.routed_circuit, device.edges(), result.initial_layout)


@pytest.mark.parametrize("router_cls", ROUTERS, ids=lambda cls: cls.name)
def test_dense_circuit_on_sparse_line(router_cls):
    """Worst-case pressure: an all-to-all interaction pattern on a line."""
    device = line_topology(7)
    circuit = random_circuit(num_qubits=7, num_gates=80, two_qubit_fraction=0.9, seed=3)
    result = _route(router_cls, device, circuit)
    verify_routing(circuit, result.routed_circuit, device.edges(), result.initial_layout)


@pytest.mark.parametrize("seed", [1, 5])
def test_routing_is_deterministic_per_seed(seed):
    """Two runs of the same router on the same input emit identical gates."""
    device = grid_topology(3, 3)
    circuit = random_circuit(num_qubits=8, num_gates=50, seed=seed)
    for router_cls in (SabreRouter, QlosureRouter):
        first = _route(router_cls, device, circuit)
        second = _route(router_cls, device, circuit)
        assert first.routed_circuit.gates == second.routed_circuit.gates
        assert first.final_layout == second.final_layout


def is_executable(state, index: int) -> bool:
    """True when the gate's operands are adjacent under the current layout."""
    pair = state.op_pairs[index]
    if pair is None:
        return True
    p1, p2 = (state.layout.physical(q) for q in pair)
    return p2 in state.coupling.neighbors(p1)


def test_cached_front_state_matches_brute_force():
    """The incremental caches agree with a from-scratch recomputation mid-run."""
    from repro.routing.engine import RoutingEngine, RoutingState

    device = grid_topology(3, 3)
    circuit = random_circuit(num_qubits=8, num_gates=40, seed=11)

    class CheckingRouter(GreedyDistanceRouter):
        checks = 0

        def select_swap(self, state: RoutingState) -> tuple[int, int]:
            cached_front = list(state.unresolved_front())
            cached_phys = set(state.front_physical_qubits())
            cached_candidates = list(state.candidate_swaps())
            # Brute-force recomputation straight from the primary state.
            expected_front = [
                index
                for index in state.front
                if state.is_2q[index] and not is_executable(state, index)
            ]
            expected_phys = set()
            for index in expected_front:
                q1, q2 = state.op_pairs[index]
                expected_phys.add(state.layout.physical(q1))
                expected_phys.add(state.layout.physical(q2))
            expected_candidates = sorted(
                {
                    (min(p1, p2), max(p1, p2))
                    for p1 in expected_phys
                    for p2 in self.coupling.neighbors(p1)
                }
            )
            assert cached_front == expected_front
            assert cached_phys == expected_phys
            assert cached_candidates == expected_candidates
            CheckingRouter.checks += 1
            return super().select_swap(state)

    result = CheckingRouter(device).run(circuit)
    assert CheckingRouter.checks > 0
    verify_routing(circuit, result.routed_circuit, device.edges(), result.initial_layout)
