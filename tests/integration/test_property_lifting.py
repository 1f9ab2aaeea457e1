"""Property-based tests of the lifting and QASM round-trip invariants."""

from hypothesis import given, settings, strategies as st

from repro.affine.access import AffineAccess
from repro.affine.lifter import lift_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from repro.qasm.loader import circuit_from_qasm
from repro.qasm.writer import circuit_to_qasm
from tests.polyhedral.dependence import dependence_weights


circuit_strategy = st.builds(
    random_circuit,
    num_qubits=st.integers(2, 10),
    num_gates=st.integers(0, 60),
    two_qubit_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 100_000),
)

RUN_QUBITS = 8


@st.composite
def circuits_of_affine_runs(draw):
    """Runs of one gate whose operands step by ``a*i + b``, cut by stray gates and barriers."""
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("run", "run", "gate", "barrier")))
        if kind == "barrier":
            gates.append(Gate("barrier", tuple(range(RUN_QUBITS))))
            continue
        name, params = draw(st.sampled_from((("h", ()), ("cx", ()), ("rz", (0.5,)), ("rz", (0.7,)))))
        arity = 2 if name == "cx" else 1
        length = draw(st.integers(1, 6)) if kind == "run" else 1
        starts = [draw(st.integers(0, RUN_QUBITS - 1)) for _ in range(arity)]
        steps = [draw(st.integers(-2, 2)) for _ in range(arity)]
        for i in range(length):
            qubits = tuple(start + step * i for start, step in zip(starts, steps))
            if len(set(qubits)) == arity and all(0 <= q < RUN_QUBITS for q in qubits):
                gates.append(Gate(name, qubits, params))
    return QuantumCircuit(RUN_QUBITS, gates, name="affine-runs")


def operand_values(run, operand):
    return [gate.qubits[operand] for gate in run]


def whole_run_lifting(circuit):
    """Maximal runs by the definition: every operand's values over the whole run fit ``a*i + b``."""

    def extends(run, gate):
        first = run[0]
        if (gate.name, gate.params, gate.num_qubits) != (first.name, first.params, first.num_qubits):
            return False
        return all(
            AffineAccess.fit(operand_values([*run, gate], k)) is not None
            for k in range(gate.num_qubits)
        )

    runs, run = [], []
    for gate in circuit:
        if gate.is_barrier or (run and not extends(run, gate)):
            runs.append(run)
            run = []
        if not gate.is_barrier:
            run.append(gate)
    runs.append(run)
    statements, time = [], 0
    for run in filter(None, runs):
        accesses = tuple(AffineAccess.fit(operand_values(run, k)) for k in range(run[0].num_qubits))
        statements.append((run[0].name, run[0].params, len(run), time, accesses))
        time += len(run)
    return statements


class TestLiftingProperties:
    @given(circuits_of_affine_runs())
    @settings(max_examples=100, deadline=None)
    def test_runs_match_the_whole_run_definition(self, circuit):
        """Checking a candidate against the run's last gate finds the same maximal runs."""
        lifted = [
            (s.gate_name, s.params, s.trip_count, s.start_time, s.accesses)
            for s in lift_circuit(circuit).statements
        ]
        assert lifted == whole_run_lifting(circuit)

    @given(circuit_strategy)
    @settings(max_examples=40, deadline=None)
    def test_lift_roundtrip_preserves_circuit(self, circuit):
        assert lift_circuit(circuit).to_circuit() == circuit

    @given(circuit_strategy)
    @settings(max_examples=40, deadline=None)
    def test_macro_gate_count_never_exceeds_gate_count(self, circuit):
        program = lift_circuit(circuit)
        assert len(program) <= max(len(circuit), 1)
        assert program.num_gate_instances == len(circuit)

    @given(circuit_strategy)
    @settings(max_examples=30, deadline=None)
    def test_weights_bounded_by_later_gates(self, circuit):
        """omega(g) only counts gates scheduled after g, so it is bounded by them."""
        weights = dependence_weights(circuit)
        total = len(weights)
        for time, weight in weights.items():
            assert 0 <= weight <= total - 1 - time

    @given(circuit_strategy)
    @settings(max_examples=30, deadline=None)
    def test_weights_dominate_successor_weights(self, circuit):
        """descendants(g) contains every successor s and all of s's descendants,
        so omega(g) >= omega(s) + 1 for every immediate successor s."""
        dag = CircuitDAG(circuit)
        counts = dag.descendant_counts()
        for index in dag.gate_indices:
            for successor in dag.successors(index):
                assert counts[index] >= counts[successor] + 1


class TestQasmRoundTripProperties:
    @given(circuit_strategy)
    @settings(max_examples=40, deadline=None)
    def test_writer_loader_roundtrip(self, circuit):
        recovered = circuit_from_qasm(circuit_to_qasm(circuit))
        assert len(recovered) == len(circuit)
        assert [(g.name, g.qubits) for g in recovered] == [
            (g.name, g.qubits) for g in circuit
        ]

    @given(circuit_strategy)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_preserves_depth_and_counts(self, circuit):
        recovered = circuit_from_qasm(circuit_to_qasm(circuit))
        assert recovered.depth() == circuit.depth()
        assert recovered.count_ops() == circuit.count_ops()
