"""End-to-end integration tests: QASM in, routed QASM out, on the paper's back-ends."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.affine.lifter import lift_circuit
from repro.analysis.experiments import compare_mappers, qasmbench_table
from repro.api import CompileRequest, compile
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.circuit.validation import verify_routing
from repro.core.error_aware import ErrorAwareQlosureRouter
from repro.core.router import QlosureRouter
from repro.hardware.backends import ankaa3, sherbrooke
from repro.hardware.topologies import grid_topology
from repro.qasm.loader import circuit_from_qasm
from repro.qasm.writer import circuit_to_qasm

from tests.core.test_lookahead import make_state
from tests.polyhedral.dependence import dependence_weights


@st.composite
def circuits_with_barriers_and_measures(draw):
    """A random circuit with barriers (on one qubit or all) and measurements interleaved."""
    base = draw(
        st.builds(
            random_circuit,
            num_qubits=st.integers(2, 8),
            num_gates=st.integers(0, 40),
            two_qubit_fraction=st.floats(0.0, 1.0),
            seed=st.integers(0, 100_000),
        )
    )
    gates = list(base)
    everyone = tuple(range(base.num_qubits))
    for _ in range(draw(st.integers(0, 10))):
        qubit = draw(st.integers(0, base.num_qubits - 1))
        gate = draw(
            st.sampled_from(
                (Gate("measure", (qubit,)), Gate("barrier", (qubit,)), Gate("barrier", everyone))
            )
        )
        gates.insert(draw(st.integers(0, len(gates))), gate)
    return QuantumCircuit(base.num_qubits, gates, name="barriers-and-measures")


def route_qlosure(circuit, backend):
    """Qlosure through the compile pipeline with full routed-circuit validation."""
    return compile(
        CompileRequest(circuit=circuit, backend=backend, router="qlosure", validation="full")
    )


class TestFullPipeline:
    def test_qasm_to_routed_qasm(self):
        """The full Fig. 3 pipeline: QASM text -> affine IR -> routing -> QASM text."""
        source = circuit_to_qasm(qft_circuit(10))
        circuit = circuit_from_qasm(source)
        backend = ankaa3()
        program = lift_circuit(circuit)
        assert program.num_gate_instances == len(circuit)
        result = route_qlosure(circuit, backend)
        routed_qasm = circuit_to_qasm(result.routed_circuit)
        assert "swap" in routed_qasm
        reparsed = circuit_from_qasm(routed_qasm)
        verify_routing(circuit, reparsed, backend.edges(), result.routing.initial_layout)

    def test_motivating_example_from_paper_text(self):
        """Route the exact QASM trace of Fig. 1b on a line; checks the worked example."""
        source = (
            "OPENQASM 2.0;\nqreg q[6];\n"
            "CX q[0],q[1];\nCX q[2],q[3];\nCX q[1],q[2];\n"
            "CX q[3],q[5];\nCX q[0],q[2];\nCX q[1],q[5];\n"
        )
        circuit = circuit_from_qasm(source)
        backend = sherbrooke()
        result = route_qlosure(circuit, backend)
        assert result.swaps_added >= 1

    @given(circuits_with_barriers_and_measures())
    @settings(max_examples=60, deadline=None)
    def test_dependence_weights_feed_the_router(self, circuit):
        """The omega Qlosure routes with is Eq. 1, across barriers and measurements.

        The oracle keys omega by time step (barriers take none) and the router
        by circuit gate index, so the oracle's keys are mapped to the indices
        of the non-barrier gates.
        """
        device = grid_topology(3, 3)
        gate_indices = [index for index, gate in enumerate(circuit) if not gate.is_barrier]
        expected = {gate_indices[time]: weight for time, weight in dependence_weights(circuit).items()}
        for router in (QlosureRouter(device), ErrorAwareQlosureRouter(device)):
            router.on_circuit_start(make_state(circuit, device))
            assert router._weights == expected


class TestPaperBackendsEndToEnd:
    @pytest.mark.parametrize("backend_factory", [sherbrooke, ankaa3])
    def test_ghz_on_paper_backends(self, backend_factory):
        backend = backend_factory()
        circuit = ghz_circuit(20)
        result = route_qlosure(circuit, backend)
        assert result.routed_depth >= circuit.depth()

    def test_queko_instance_on_ankaa(self):
        backend = ankaa3()
        instance = generate_queko_circuit(backend, depth=10, seed=3)
        result = route_qlosure(instance.circuit, backend)
        assert result.routed_depth >= instance.optimal_depth


class TestComparisonShape:
    def test_qlosure_beats_baselines_on_queko_swaps(self):
        """The core claim of the paper at small scale: fewer SWAPs than every baseline
        on dependence-rich QUEKO workloads (averaged over a few instances)."""
        backend = ankaa3()
        circuits = [generate_queko_circuit(backend, depth=12, seed=s) for s in range(3)]
        records = compare_mappers(circuits, backend)
        totals = {}
        for record in records:
            totals[record.mapper_name] = totals.get(record.mapper_name, 0) + record.swaps
        assert totals["qlosure"] <= min(
            value for name, value in totals.items() if name != "qlosure"
        )

    def test_qasmbench_table_has_improvement_row(self):
        backend = ankaa3()
        circuits = [ghz_circuit(16), qft_circuit(10)]
        records = compare_mappers(circuits, backend)
        table = qasmbench_table(records)
        assert set(table["rows"]) == {"ghz_n16", "qft_n10"}
        assert "lightsabre" in table["improvement"]
