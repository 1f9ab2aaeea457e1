"""Tests for look-ahead window construction."""

import pytest

from repro.analysis.perf_trajectory import smoke_fixture
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow, build_lookahead, window_size
from repro.core.router import QlosureRouter
from repro.hardware.backends import sherbrooke
from repro.hardware.coupling import CouplingGraph
from repro.routing.engine import RoutingState
from repro.routing.layout import Layout

from tests.core import lookahead_oracle
from tests.routing.test_stress import stress_corpus


def make_state(circuit: QuantumCircuit, device: CouplingGraph) -> RoutingState:
    """Build the routing state an engine would have before its first iteration."""
    dag = CircuitDAG(circuit, include_single_qubit=True)
    pending = {index: len(dag.predecessors(index)) for index in dag.gate_indices}
    return RoutingState(
        circuit=circuit,
        coupling=device,
        dag=dag,
        layout=Layout.trivial(circuit.num_qubits, device.num_qubits),
        distance=device.distance_matrix(),
        pending_predecessors=pending,
        front={index for index, count in pending.items() if count == 0},
    )


def chain_circuit(n: int) -> QuantumCircuit:
    circuit = QuantumCircuit(n)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


class TestWindowSize:
    def test_scales_with_front_qubits(self, paper_example_circuit):
        from repro.hardware.topologies import line_topology

        state = make_state(paper_example_circuit, line_topology(6))
        # Front = {cx(0,1), cx(2,3)}; both are adjacent on a line under the
        # identity layout, so the unresolved front is empty and n_f defaults to 1.
        assert window_size(state, lookahead_constant=3, cap=100) == 3

    def test_cap_applies(self, grid4x4):
        circuit = chain_circuit(16)
        state = make_state(circuit, grid4x4)
        assert window_size(state, lookahead_constant=100, cap=8) <= 8


class TestLayers:
    def test_window_layers_follow_dependence_distance(self, grid4x4):
        circuit = QuantumCircuit(8)
        circuit.cx(0, 5)   # blocked on a 4x4 grid under the identity layout
        circuit.cx(5, 2)   # depends on the first gate
        circuit.cx(2, 7)   # depends on the second
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5)
        assert len(window.layers) == 3
        assert window.layers[0] == [0]
        assert window.layers[1] == [1]
        assert window.layers[2] == [2]

    def test_front_only_mode(self, grid4x4):
        circuit = chain_circuit(8)
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5, front_only=True)
        assert len(window.layers) == 1

    def test_single_qubit_gates_are_not_scored(self, grid4x4):
        circuit = QuantumCircuit(6)
        circuit.cx(0, 5)
        circuit.h(5)
        circuit.cx(5, 2)
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5)
        for layer in window.layers:
            for index in layer:
                assert state.gate(index).is_two_qubit

    def test_window_respects_gate_budget(self, grid4x4):
        circuit = chain_circuit(16)
        state = make_state(circuit, grid4x4)
        small = build_lookahead(state, lookahead_constant=1, cap=3)
        assert small.num_gates <= 3

    def test_executed_gates_are_excluded(self, grid4x4):
        circuit = chain_circuit(6)
        state = make_state(circuit, grid4x4)
        # Pretend gate 0 has been executed.
        state.executed.add(0)
        state.front = {1}
        state.pending_predecessors[1] = 0
        window = build_lookahead(state, lookahead_constant=5)
        assert 0 not in window.gates()

    def test_empty_front_yields_empty_window(self, grid4x4):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        state = make_state(circuit, grid4x4)
        window = build_lookahead(state, lookahead_constant=5)
        assert window.num_gates == 0


class TestWindowContainer:
    def test_gate_listing(self):
        window = LookaheadWindow([[3, 4], [7]])
        assert window.gates() == [3, 4, 7]
        assert window.num_gates == 3
        assert len(window.layers) == 2
        assert list(iter(window)) == [[3, 4], [7]]


#: ``(lookahead constant, cap)`` windows checked at every stall besides the
#: router's own: a one-gate-per-qubit window, a wide one and a capped one.
EXTRA_WINDOWS = ((1, 512), (8, 512), (20, 6))


class OracleCheckedQlosure(QlosureRouter):
    """Qlosure comparing ``build_lookahead`` with the oracle at every stall."""

    def __init__(self, coupling, config=None):
        super().__init__(coupling, config)
        self.stalls = 0

    def swap_costs(self, state, candidates):
        own = (self._lookahead_constant, self.config.max_lookahead_gates)
        for constant, cap in (own, *EXTRA_WINDOWS):
            expected = lookahead_oracle.build_lookahead(state, constant, cap)
            assert build_lookahead(state, constant, cap).layers == expected.layers
        front_only = lookahead_oracle.build_lookahead(state, 1, front_only=True)
        assert build_lookahead(state, 1, front_only=True).layers == front_only.layers
        self.stalls += 1
        return super().swap_costs(state, candidates)


class TestWindowOracle:
    """The one-pass builder against the reference construction, stall by stall."""

    def test_random_couplings(self):
        stalls = 0
        for coupling, circuit in stress_corpus(cases=30, seed=77):
            router = OracleCheckedQlosure(coupling, QlosureConfig(seed=3))
            router.run(circuit)
            stalls += router.stalls
        assert stalls > 100

    @pytest.mark.parametrize("instance", range(6))
    def test_fixture(self, instance):
        router = OracleCheckedQlosure(sherbrooke())
        router.run(smoke_fixture()[instance].circuit)
        assert router.stalls > 0
