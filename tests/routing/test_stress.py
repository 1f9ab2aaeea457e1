"""Stress corpus: every registered router finishes every route.

Random connected couplings of 4 to 16 qubits, each routing either a random
circuit or a small QUEKO instance generated on it, compiled with every
registered router under identity and bidirectional (one pass) placement
and ``validation="full"``.  A router that cycles without executing a gate
runs into the engine's SWAP budget and raises ``RouterError``; the release
valve is what keeps every route finishing.  The corpus runs twice: with
each router's own threshold, and with every threshold lowered to two SWAPs
so that the valve opens on every router's states.
"""

from __future__ import annotations

import random

import pytest

from repro.api import CompileRequest, compile as api_compile, router_names
from repro.api.registry import resolve_router
from repro.benchgen.queko import generate_queko_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.hardware.coupling import CouplingGraph
from repro.routing.engine import RoutingEngine

PLACEMENTS = (("identity", {}), ("bidirectional", {"passes": 1}))


def random_coupling(rng: random.Random, num_qubits: int) -> CouplingGraph:
    """A random spanning tree under shuffled labels, plus a few extra edges."""
    labels = rng.sample(range(num_qubits), num_qubits)
    edges = [(labels[rng.randrange(q)], labels[q]) for q in range(1, num_qubits)]
    for _ in range(rng.randrange(num_qubits // 2 + 1)):
        edges.append(tuple(rng.sample(range(num_qubits), 2)))
    return CouplingGraph(num_qubits, edges, name=f"random-{num_qubits}")


def stress_corpus(cases: int = 60, seed: int = 2024):
    """``(coupling, circuit)`` pairs; every third circuit is QUEKO on its device."""
    rng = random.Random(seed)
    corpus = []
    for index in range(cases):
        coupling = random_coupling(rng, rng.randint(4, 16))
        if index % 3 == 2:
            circuit = generate_queko_circuit(
                coupling, rng.randint(3, 12), seed=rng.randrange(10_000)
            ).circuit
        else:
            circuit = random_circuit(
                rng.randint(2, coupling.num_qubits),
                rng.randint(10, 120),
                seed=rng.randrange(10_000),
            )
        corpus.append((coupling, circuit))
    return corpus


CORPUS = stress_corpus()


def route_corpus(router: str) -> None:
    for coupling, circuit in CORPUS:
        for placement, options in PLACEMENTS:
            api_compile(
                CompileRequest(
                    circuit=circuit,
                    backend=coupling,
                    router=router,
                    placement=placement,
                    placement_options=options,
                    validation="full",
                ),
                cache=False,
            )


@pytest.mark.parametrize("router", router_names())
def test_every_route_finishes(router):
    route_corpus(router)


@pytest.mark.parametrize("router", router_names())
def test_every_route_finishes_with_the_valve_opening_early(router, monkeypatch):
    monkeypatch.setattr(resolve_router(router).factory, "release_valve_threshold", 2)
    valve_swaps = []
    release = RoutingEngine._release_valve_swap

    def counting_release(self, state, front):
        valve_swaps.append(state.swaps_since_progress)
        return release(self, state, front)

    monkeypatch.setattr(RoutingEngine, "_release_valve_swap", counting_release)
    route_corpus(router)
    assert valve_swaps and min(valve_swaps) >= 2
