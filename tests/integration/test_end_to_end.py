"""End-to-end integration tests: QASM in, routed QASM out, on the paper's back-ends."""

import pytest

from repro.affine.dependence import DependenceAnalysis
from repro.affine.lifter import lift_circuit
from repro.analysis.experiments import compare_mappers, qasmbench_table
from repro.api import CompileRequest, compile
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit, qugan_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.circuit.validation import verify_routing
from repro.hardware.backends import ankaa3, sherbrooke
from repro.qasm.loader import circuit_from_qasm
from repro.qasm.writer import circuit_to_qasm


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

    def test_dependence_weights_feed_the_router(self):
        circuit = qugan_circuit(12)
        analysis = DependenceAnalysis(circuit)
        assert max(analysis.weights().values()) > 0
        result = route_qlosure(circuit, ankaa3())
        assert result.swaps_added >= 0


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
