"""Tests for QRANE-style circuit lifting."""

from repro.affine.access import AffineAccess
from repro.affine.lifter import lift_circuit, lifting_report
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.circuit.circuit import QuantumCircuit
from tests.polyhedral.views import access_maps, iteration_domain, schedule_map


class TestGrouping:
    def test_qrane_paper_trace(self):
        """The QASM trace of Sec. III-C lifts to a single macro-gate."""
        circuit = QuantumCircuit(8)
        circuit.cx(0, 1)
        circuit.cx(1, 3)
        circuit.cx(2, 5)
        circuit.cx(3, 7)
        program = lift_circuit(circuit)
        assert len(program) == 1
        statement = program.statements[0]
        assert statement.trip_count == 4
        assert statement.accesses == (AffineAccess(1, 0), AffineAccess(2, 1))

    def test_ghz_chain_is_one_macro_gate_plus_hadamard(self):
        program = lift_circuit(ghz_circuit(10))
        assert len(program) == 2
        names = [s.gate_name for s in program.statements]
        assert names == ["h", "cx"]
        assert program.statements[1].trip_count == 9

    def test_gate_name_change_breaks_run(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cz(2, 3)
        program = lift_circuit(circuit)
        assert len(program) == 2

    def test_parameter_change_breaks_run(self):
        circuit = QuantumCircuit(3)
        circuit.rz(0.5, 0)
        circuit.rz(0.5, 1)
        circuit.rz(0.7, 2)
        program = lift_circuit(circuit)
        assert len(program) == 2

    def test_non_affine_operand_breaks_run(self):
        circuit = QuantumCircuit(8)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.cx(2, 3)
        circuit.cx(5, 7)  # breaks both progressions
        program = lift_circuit(circuit)
        assert len(program) == 2
        assert program.statements[0].trip_count == 3

    def test_second_gate_sets_the_step_of_each_operand(self):
        circuit = QuantumCircuit(10)
        circuit.cx(0, 1)
        circuit.cx(3, 5)
        circuit.cx(6, 9)
        program = lift_circuit(circuit)
        assert len(program) == 1
        assert program.statements[0].accesses == (AffineAccess(3, 0), AffineAccess(4, 1))

    def test_step_is_kept_from_the_last_gate_of_the_run(self):
        circuit = QuantumCircuit(5)
        for qubit in (0, 2, 4, 2):  # the last gate is one step past the first
            circuit.h(qubit)
        program = lift_circuit(circuit)
        assert [s.trip_count for s in program.statements] == [3, 1]
        assert program.statements[0].accesses == (AffineAccess(2, 0),)

    def test_constant_operand_extends_a_run(self):
        circuit = QuantumCircuit(4)
        for target in (1, 2, 3):
            circuit.cx(0, target)
        circuit.rz(0.5, 3)
        circuit.rz(0.5, 3)
        program = lift_circuit(circuit)
        assert [s.trip_count for s in program.statements] == [3, 2]
        assert program.statements[0].accesses == (AffineAccess(0, 0), AffineAccess(1, 1))
        assert program.statements[1].accesses == (AffineAccess(0, 3),)

    def test_singletons_are_kept(self, paper_example_circuit):
        program = lift_circuit(paper_example_circuit)
        assert program.num_gate_instances == len(paper_example_circuit)

    def test_barriers_are_skipped(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.cx(1, 2)
        program = lift_circuit(circuit)
        assert program.num_gate_instances == 2


class TestReconstruction:
    def test_roundtrip_preserves_gate_sequence(self, qft6):
        program = lift_circuit(qft6)
        rebuilt = program.to_circuit()
        assert [(g.name, g.qubits, g.params) for g in rebuilt] == [
            (g.name, g.qubits, g.params) for g in qft6 if not g.is_barrier
        ]

    def test_roundtrip_ghz(self):
        original = ghz_circuit(12)
        rebuilt = lift_circuit(original).to_circuit()
        assert rebuilt == original

    def test_compression_ratio(self):
        program = lift_circuit(ghz_circuit(20))
        assert program.compression_ratio() > 5

    def test_lifting_report_fields(self):
        report = lifting_report(lift_circuit(ghz_circuit(8)))
        assert report["num_instances"] == 8
        assert report["num_statements"] == 2
        assert report["largest_macro_gate"] == 7
        assert report["singleton_statements"] == 1


class TestPolyhedralViews:
    def test_iteration_domain_cardinality(self):
        program = lift_circuit(ghz_circuit(9))
        chain = program.statements[1]
        assert iteration_domain(chain).count() == 8

    def test_access_maps_cover_qubits(self):
        program = lift_circuit(ghz_circuit(5))
        chain = program.statements[1]
        first, second = access_maps(chain)
        assert sorted(p[1][0] for p in first.pairs()) == [0, 1, 2, 3]
        assert sorted(p[1][0] for p in second.pairs()) == [1, 2, 3, 4]

    def test_schedule_map_is_affine_in_time(self):
        program = lift_circuit(ghz_circuit(5))
        chain = program.statements[1]
        schedule = schedule_map(chain)
        times = sorted(p[1][0] for p in schedule.pairs())
        assert times == [1, 2, 3, 4]

    def test_instance_gate_matches_original(self, paper_example_circuit):
        program = lift_circuit(paper_example_circuit)
        gates = [g for s in program.statements for g in s.gates()]
        assert len(gates) == len(paper_example_circuit)
