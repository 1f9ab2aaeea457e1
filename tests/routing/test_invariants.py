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

from repro.api.registry import router_specs
from repro.baselines.cirq_like import CirqLikeRouter
from repro.baselines.greedy import GreedyDistanceRouter
from repro.baselines.qmap_like import QmapLikeRouter
from repro.baselines.sabre import LightSabreRouter, SabreRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.validation import verify_routing
from repro.core.router import QlosureRouter
from repro.hardware.topologies import grid_topology, line_topology, ring_topology

from tests.routing.test_stress import stress_corpus

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


def brute_force_views(state):
    """The unresolved front, its logical pairs, footprint and candidate SWAPs.

    Recomputed straight from the primary state (front set, layout, coupling).
    """
    front = [
        index
        for index in state.front
        if state.is_2q[index] and not is_executable(state, index)
    ]
    pairs = [state.op_pairs[index] for index in front]
    footprint = {state.layout.physical(q) for pair in pairs for q in pair}
    candidates = sorted(
        {
            (min(p1, p2), max(p1, p2))
            for p1 in footprint
            for p2 in state.coupling.neighbors(p1)
        }
    )
    return front, pairs, footprint, candidates


@pytest.mark.parametrize("spec", list(router_specs()), ids=lambda spec: spec.name)
def test_cached_front_state_matches_brute_force(spec):
    """The incremental caches agree with a recomputation from the primary state.

    Checked at every stall, and after every committed SWAP (release-valve
    ones included) that leaves the cached views valid, on a 3x3 grid and the
    stress corpus.  A SWAP that keeps the footprint keeps the candidate-list
    object, and when the engine skips the front rescan no front gate is
    executable.
    """
    counts = {"stalls": 0, "swaps": 0, "kept": 0}

    def assert_views_match(state):
        front, pairs, footprint, candidates = brute_force_views(state)
        assert state.unresolved_front() == front
        assert state.front_pairs() == pairs
        assert list(state.front_partners().items()) == [
            item for q1, q2 in pairs for item in ((q1, q2), (q2, q1))
        ]
        assert state.front_physical_qubits() == footprint
        assert state.candidate_swaps() == candidates
        return footprint

    workloads = [(grid_topology(3, 3), random_circuit(num_qubits=8, num_gates=40, seed=11))]
    workloads += stress_corpus(cases=24, seed=77)
    for device, circuit in workloads:
        router = spec.make(device, seed=3)
        select_swap = router.select_swap
        apply_swap = router._apply_swap

        def checked_select(state):
            assert_views_match(state)
            counts["stalls"] += 1
            return select_swap(state)

        def checked_apply(state, swap):
            footprint = set(state.front_physical_qubits())
            candidates = state.candidate_swaps()
            apply_swap(state, swap)
            if state._front_dirty:
                return  # a front gate became executable
            if assert_views_match(state) == footprint:
                # Two front qubits traded places: the same list object.
                assert state.candidate_swaps() is candidates
                counts["kept"] += 1
            if not state.front_may_execute():
                assert not any(is_executable(state, index) for index in state.front)
            counts["swaps"] += 1

        router.select_swap = checked_select
        router._apply_swap = checked_apply
        result = router.run(circuit)
        verify_routing(circuit, result.routed_circuit, device.edges(), result.initial_layout)
    assert counts["stalls"] > 0 and counts["swaps"] > 0 and counts["kept"] > 0
