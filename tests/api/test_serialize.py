"""Round-trip property tests for :mod:`repro.api.serialize`.

The compile cache replays serialized payloads as if they were fresh compile
runs, so the payload round-trip must be *exact*: for every registered router
on the two pinned golden circuits, ``CompileResult -> payload ->
CompileResult`` has to preserve the routed gate sequence, the initial/final
layouts, the swap count, the depth and the metrics bit for bit.  The pinned
swap-sequence/gate-sequence hashes under ``tests/data/golden/`` double as an
independent oracle: a rebuilt circuit must still hash to the snapshot a
*direct* routing run is pinned against.
"""

import hashlib
import json
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    CompileRequest,
    PAYLOAD_VERSION,
    SerializationError,
    compile_uncached,
    result_from_payload,
    result_to_payload,
    router_names,
)
from repro.analysis.perf_trajectory import smoke_requests
from repro.api.serialize import circuit_from_payload, circuit_to_payload
from repro.benchgen.qasmbench import qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from repro.hardware.topologies import grid_topology

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "golden"
#: A gate table written by the ``PAYLOAD_VERSION`` 2 encoder (see TestPinnedPayload).
PINNED_PAYLOAD = Path(__file__).resolve().parent.parent / "data" / "payload-v2.json"

#: The pinned golden snapshot setup (kept in lockstep with
#: tests/routing/test_golden.py: same circuits, same backend, same seed).
GOLDEN_SEED = 0


def golden_circuits():
    queko = generate_queko_circuit(
        grid_topology(4, 4), depth=8, seed=11, name="golden-queko-4x4-d8"
    ).circuit
    return {
        "queko-4x4-d8": queko,
        "qasmbench-qft8": qft_circuit(8),
    }


def _sequence_hash(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


def gates_of(circuit):
    return [(g.name, g.qubits, g.params, g.label) for g in circuit]


def distinct_gates(circuit):
    """The distinct gates by the decoder's key: parameters as their ``repr`` words."""
    return {(g.name, g.qubits, tuple(map(repr, g.params)), g.label) for g in circuit}


CIRCUIT_NAMES = sorted(golden_circuits())


@pytest.mark.parametrize("circuit_name", CIRCUIT_NAMES)
@pytest.mark.parametrize("router", sorted(router_names()))
class TestRoundTripEveryRouter:
    def _round_trip(self, circuit_name, router):
        result = compile_uncached(
            CompileRequest(
                circuit=golden_circuits()[circuit_name],
                backend=grid_topology(5, 5),
                router=router,
                seed=GOLDEN_SEED,
            )
        )
        rebuilt = result_from_payload(result_to_payload(result), result.request)
        return result, rebuilt

    def test_round_trip_is_exact(self, circuit_name, router):
        result, rebuilt = self._round_trip(circuit_name, router)
        assert gates_of(rebuilt.routed_circuit) == gates_of(result.routed_circuit)
        assert rebuilt.routing.initial_layout == result.routing.initial_layout
        assert rebuilt.routing.final_layout == result.routing.final_layout
        assert rebuilt.swaps_added == result.swaps_added
        assert rebuilt.routed_depth == result.routed_depth
        assert rebuilt.routing.original_depth == result.routing.original_depth
        assert rebuilt.routing.cost_evaluations == result.routing.cost_evaluations
        assert rebuilt.routing.mapper_name == result.routing.mapper_name
        assert rebuilt.routing.metadata == result.routing.metadata
        assert rebuilt.metrics == result.metrics
        assert rebuilt.pass_timings == result.pass_timings
        assert rebuilt.router == result.router
        assert rebuilt.backend_name == result.backend_name
        assert rebuilt.circuit_name == result.circuit_name
        assert rebuilt.request is result.request
        # One decoded object per distinct gate, shared by its positions.
        routed = rebuilt.routed_circuit
        assert len({id(gate) for gate in routed}) == len(distinct_gates(routed))

    def test_rebuilt_circuit_matches_golden_snapshot(self, circuit_name, router):
        """The golden swap/gate hashes must hold for the *deserialized* circuit."""
        golden = json.loads(
            (GOLDEN_DIR / f"{circuit_name}.json").read_text()
        )["routers"][router]
        _, rebuilt = self._round_trip(circuit_name, router)
        routed = rebuilt.routed_circuit
        swaps = [gate.qubits for gate in routed if gate.name == "swap"]
        assert _sequence_hash(swaps) == golden["swap_hash"]
        assert _sequence_hash(
            (g.name, g.qubits, g.params) for g in routed
        ) == golden["gates_hash"]
        assert rebuilt.routed_depth == golden["depth"]
        assert len(swaps) == golden["swaps"]


class TestCircuitPayload:
    def test_measurements_and_barriers_survive(self):
        circuit = QuantumCircuit(3, name="mixed")
        circuit.h(0)
        circuit.barrier(0, 1)
        circuit.rz(-1.25e-07, 1)  # negative + exponent-notation parameter
        circuit.cx(1, 2)
        circuit.measure(2)
        rebuilt = circuit_from_payload(circuit_to_payload(circuit))
        assert gates_of(rebuilt) == gates_of(circuit)
        assert rebuilt.num_qubits == circuit.num_qubits
        assert rebuilt.name == circuit.name

    def test_operand_less_barrier_survives(self):
        circuit = QuantumCircuit(3, name="fence")
        circuit.h(0)
        circuit.append(Gate("barrier", ()))
        circuit.cx(0, 2)
        rebuilt = circuit_from_payload(circuit_to_payload(circuit))
        assert gates_of(rebuilt) == gates_of(circuit)

    def test_non_finite_parameters_survive(self):
        circuit = QuantumCircuit(2, name="wild")
        for angle in (math.nan, math.inf, -math.inf, -0.0):
            circuit.rz(angle, 1)
        payload = json.loads(json.dumps(circuit_to_payload(circuit), allow_nan=False))
        rebuilt = circuit_from_payload(payload)
        assert [repr(g.params) for g in rebuilt] == [repr(g.params) for g in circuit]

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("ops", "0 0 1 1 2 1", "truncated"),
            ("ops", "0 0 1 1 3 1 2", "unknown gate kind code 3"),
            ("ops", "0 0 1 1 -1 1 2", "unknown gate kind code -1"),
            ("ops", "0 3 1 1 2 1 2", "outside"),
            ("params", "0.5 0.25", "longer"),
            ("params", "", "shorter"),
            ("ops", [0, 0, 1, 1, 2, 1, 2], "must be strings"),
            ("params", [0.5], "must be strings"),
            ("kinds", [["h", 1, 0], ["rz", 1, 1], ["cx", -2, 0]], "malformed gate kind"),
            ("labels", [[9, "prep"]], "label"),
            ("num_qubits", math.inf, "infinity"),
            ("labels", [[math.inf, "prep"]], "infinity"),
        ],
        ids=[
            "truncated-ops",
            "unknown-kind-code",
            "negative-kind-code",
            "qubit-out-of-range",
            "params-too-long",
            "params-too-short",
            "ops-not-a-string",
            "params-not-a-string",
            "negative-kind-width",
            "label-past-the-end",
            "infinite-num-qubits",
            "infinite-label-index",
        ],
    )
    def test_malformed_table_raises_serialization_error(self, column, value, message):
        circuit = QuantumCircuit(3, name="tiny")
        circuit.h(0)
        circuit.rz(0.5, 1)
        circuit.cx(1, 2)
        payload = circuit_to_payload(circuit)
        payload[column] = value
        with pytest.raises(SerializationError, match=message):
            circuit_from_payload(payload)


class TestSharedGates:
    """The decoder builds each distinct gate once; its repeats are that object."""

    def _decoded(self, *gates):
        return list(circuit_from_payload(circuit_to_payload(QuantumCircuit(3, gates))))

    def test_equal_gates_decode_to_one_object(self):
        first, _, again, flipped = self._decoded(
            Gate("cx", (0, 1)), Gate("h", (2,)), Gate("cx", (0, 1)), Gate("cx", (1, 0))
        )
        assert again is first
        assert flipped is not first and flipped.qubits == (1, 0)

    def test_signed_zeros_stay_distinct(self):
        negative, positive, negative_again = self._decoded(
            Gate("rz", (0,), (-0.0,)), Gate("rz", (0,), (0.0,)), Gate("rz", (0,), (-0.0,))
        )
        assert positive is not negative and negative_again is negative
        assert repr(negative.params) == "(-0.0,)"
        assert repr(positive.params) == "(0.0,)"

    def test_labelled_repeat_is_not_its_unlabelled_twin(self):
        plain, tagged, plain_again, tagged_again = self._decoded(
            Gate("cx", (0, 1)),
            Gate("cx", (0, 1), label="tag"),
            Gate("cx", (0, 1)),
            Gate("cx", (0, 1), label="tag"),
        )
        assert tagged is not plain
        assert (plain.label, tagged.label) == ("", "tag")
        assert plain_again is plain and tagged_again is tagged

    def test_nan_gate_keeps_its_repr(self):
        first, second = self._decoded(Gate("rz", (1,), (math.nan,)), Gate("rz", (1,), (math.nan,)))
        assert second is first
        assert repr(first.params) == "(nan,)"

    @pytest.mark.parametrize("ops", ["0 1 3 0 1 3", "0 1 2 0 1 3 0 1 3"], ids=["first", "later"])
    def test_out_of_range_first_occurrence_raises(self, ops):
        payload = circuit_to_payload(QuantumCircuit(3, [Gate("cx", (1, 2))]))
        payload["ops"] = ops
        with pytest.raises(SerializationError, match="outside"):
            circuit_from_payload(payload)

    def test_repeated_operand_gate_raises(self):
        payload = circuit_to_payload(QuantumCircuit(3, [Gate("cx", (1, 2))]))
        payload["ops"] = "0 1 2 0 1 1 0 1 1"
        with pytest.raises(SerializationError, match="repeated qubit operands"):
            circuit_from_payload(payload)


#: Gate kinds of the round-trip property, ``(name, width, arity)``; a barrier
#: takes any width from none to every qubit.
PROPERTY_KINDS = [
    ("h", 1, 0),
    ("measure", 1, 0),
    ("cx", 2, 0),
    ("swap", 2, 0),
    ("ccx", 3, 0),
    ("rz", 1, 1),
    ("cp", 2, 1),
    ("u3", 1, 3),
    ("barrier", None, 0),
]
PROPERTY_PARAMETERS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.floats()
)


@st.composite
def repeating_circuits(draw):
    """A circuit that repeats a few distinct gates, some repeats labelled."""
    num_qubits = draw(st.integers(3, 6))
    pool = []
    for name, width, arity in draw(st.lists(st.sampled_from(PROPERTY_KINDS), min_size=1, max_size=6)):
        if width is None:
            width = draw(st.integers(0, num_qubits))
        qubits = draw(st.permutations(range(num_qubits)))[:width]
        params = draw(st.lists(PROPERTY_PARAMETERS, min_size=arity, max_size=arity))
        pool.append(Gate(name, qubits, params))
    positions = st.tuples(st.integers(0, len(pool) - 1), st.sampled_from(["", "", "tag", "a b"]))
    circuit = QuantumCircuit(num_qubits, name="property")
    for index, label in draw(st.lists(positions, max_size=40)):
        gate = pool[index]
        circuit.append(Gate(gate.name, gate.qubits, gate.params, label) if label else gate)
    return circuit


class TestGateTableProperty:
    @given(repeating_circuits())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_exact_both_ways(self, circuit):
        payload = json.loads(json.dumps(circuit_to_payload(circuit)))
        rebuilt = circuit_from_payload(payload)
        # repr, because nan != nan
        assert repr(gates_of(rebuilt)) == repr(gates_of(circuit))
        assert circuit_to_payload(rebuilt) == payload
        assert len({id(gate) for gate in rebuilt}) == len(distinct_gates(circuit))

    @given(repeating_circuits())
    @settings(max_examples=100, deadline=None)
    def test_table_follows_the_layout(self, circuit):
        """Kinds in first-appearance order, then one code and its qubits per gate."""
        payload = circuit_to_payload(circuit)
        kinds = list(dict.fromkeys((g.name, len(g.qubits), len(g.params)) for g in circuit))
        assert payload["kinds"] == [list(kind) for kind in kinds]
        assert payload["ops"] == " ".join(
            " ".join(map(str, [kinds.index((g.name, len(g.qubits), len(g.params))), *g.qubits]))
            for g in circuit
        )
        assert payload["params"] == " ".join(repr(p) for g in circuit for p in g.params)
        assert payload["labels"] == [[i, g.label] for i, g in enumerate(circuit) if g.label]


#: The gates ``tests/data/payload-v2.json`` holds, as ``(name, qubits, params, label)``.
PINNED_GATES = [
    ("h", (0,), (), ""),
    ("cx", (0, 1), (), "entangle"),
    ("barrier", (), (), ""),
    ("rz", (2,), (-1.25e-07,), ""),
    ("u3", (2,), (0.5, math.pi, -0.0), ""),
    ("rz", (1,), (math.nan,), ""),
    ("swap", (1, 2), (), ""),
    ("barrier", (0, 2), (), ""),
    ("measure", (2,), (), ""),
]


class TestPinnedPayload:
    """The committed gate table pins the wire format of ``PAYLOAD_VERSION`` 2.

    Disk caches and served clients hold tables like it, so a decoder change
    must still read it to the same gates (label, operand-less barrier,
    parameters and ``nan`` included) and re-encode it to the same dict.
    """

    def test_pinned_table_decodes_to_its_gates(self):
        circuit = circuit_from_payload(json.loads(PINNED_PAYLOAD.read_text()))
        assert circuit.name == "pinned-v2"
        assert circuit.num_qubits == 3
        # repr, because nan != nan
        assert repr(gates_of(circuit)) == repr(PINNED_GATES)

    def test_pinned_table_re_encodes_identically(self):
        payload = json.loads(PINNED_PAYLOAD.read_text())
        assert circuit_to_payload(circuit_from_payload(payload)) == payload


class TestResultPayload:
    def _result(self):
        return compile_uncached(
            CompileRequest(generate="ghz:6", backend=grid_topology(3, 3), router="greedy")
        )

    def test_payload_is_json_serializable(self):
        payload = result_to_payload(self._result())
        assert json.loads(json.dumps(payload)) == payload

    def test_version_mismatch_raises(self):
        payload = result_to_payload(self._result())
        payload["version"] = PAYLOAD_VERSION + 1
        with pytest.raises(SerializationError, match="version"):
            result_from_payload(payload, None)

    def test_missing_field_raises_serialization_error(self):
        payload = result_to_payload(self._result())
        del payload["routing"]
        with pytest.raises(SerializationError):
            result_from_payload(payload, None)


#: The routers of the benchmark's ``serve-mix`` pool.
SERVE_MIX_ROUTERS = ("sabre", "qlosure", "greedy")
#: The ``serve-mix`` pool: every family and size, every router.
SERVE_MIX_POOL = [
    CompileRequest(
        generate=f"{family}:{size}", backend="sherbrooke", router=router, seed=0,
        validation="full",
    )
    for family in ("qft", "qaoa", "ising", "adder")
    for size in (16, 32)
    for router in SERVE_MIX_ROUTERS
]


@pytest.fixture(scope="module")
def stored_payloads():
    """Result payloads of the pinned 54-qubit fixture and the ``serve-mix`` pool."""
    fixture = [request for request in smoke_requests() if request.router in SERVE_MIX_ROUTERS]
    return [
        result_to_payload(compile_uncached(request)) for request in fixture + SERVE_MIX_POOL
    ]


def stored_circuit(payload):
    """The routed circuit of ``payload``, read the way a memory-tier hit reads it."""
    return result_from_payload(payload, None, lazy=True).routed_circuit


def unread(circuit) -> bool:
    return "_gates" not in vars(circuit)


def dag_view(circuit):
    dag = CircuitDAG(circuit)
    return [dag.successors(index) for index in dag.gate_indices], dag.descendant_counts()


#: What a caller may do first with a routed circuit, each compared to the eager decode.
FIRST_READS = {
    "gates": lambda circuit: [repr(gate) for gate in circuit],
    "len": len,
    "depth": lambda circuit: circuit.depth(),
    "count_ops": lambda circuit: circuit.count_ops(),
    "copy": lambda circuit: circuit.copy(),
    "pickle": lambda circuit: pickle.loads(pickle.dumps(circuit)),
    "dag": dag_view,
    "equality": lambda circuit: circuit,
}


class TestStoredCircuit:
    """A memory-tier hit's routed circuit reads its gate table on first use."""

    def test_lazy_decode_equals_the_eager_one(self, stored_payloads):
        for payload in stored_payloads:
            eager = result_from_payload(payload, None).routed_circuit
            for name, read in FIRST_READS.items():
                circuit = stored_circuit(payload)
                assert unread(circuit)
                assert (circuit.name, circuit.num_qubits) == (eager.name, eager.num_qubits)
                assert read(circuit) == read(eager), name

    def test_an_unread_circuit_encodes_to_a_copy_of_its_table(self, stored_payloads):
        for payload in stored_payloads:
            table = payload["routing"]["routed_circuit"]
            circuit = stored_circuit(payload)
            encoded = circuit_to_payload(circuit)
            assert encoded == table
            assert encoded is not table
            assert encoded["kinds"] is not table["kinds"]
            assert encoded["labels"] is not table["labels"]
            assert unread(circuit)
            encoded["kinds"][0][0] = "edited"
            encoded["labels"].append([0, "edited"])
            assert encoded != table
            assert circuit_to_payload(circuit) == table
            assert result_to_payload(result_from_payload(payload, None, lazy=True)) == payload

    def test_a_read_circuit_goes_through_the_encoder(self, stored_payloads):
        for payload in stored_payloads:
            table = payload["routing"]["routed_circuit"]
            circuit = stored_circuit(payload)
            assert len(circuit) > 0
            encoded = circuit_to_payload(circuit)
            assert encoded == table
            assert encoded["ops"] is not table["ops"]  # built again, not shared

    def test_an_appended_gate_is_in_the_payload(self, stored_payloads):
        for payload in stored_payloads:
            gates = len(stored_circuit(payload))
            circuit = stored_circuit(payload)
            circuit.append(Gate("h", (0,), label="appended"))
            rebuilt = circuit_from_payload(circuit_to_payload(circuit))
            assert len(rebuilt) == gates + 1
            assert rebuilt[-1] == Gate("h", (0,), label="appended")

    def test_a_new_name_is_in_the_payload(self, stored_payloads):
        for payload in stored_payloads:
            table = payload["routing"]["routed_circuit"]
            circuit = stored_circuit(payload)
            circuit.name = "renamed"
            encoded = circuit_to_payload(circuit)
            assert encoded["name"] == "renamed"
            assert {**encoded, "name": table["name"]} == table

    def test_the_pinned_table_decodes_and_re_encodes_unchanged(self):
        table = json.loads(PINNED_PAYLOAD.read_text())
        result = result_to_payload(
            compile_uncached(CompileRequest(generate="ghz:4", backend=grid_topology(2, 2)))
        )
        result["routing"]["routed_circuit"] = table
        assert circuit_to_payload(stored_circuit(result)) == table
        circuit = stored_circuit(result)
        assert (circuit.name, circuit.num_qubits) == ("pinned-v2", 3)
        assert repr(gates_of(circuit)) == repr(PINNED_GATES)
        assert circuit_to_payload(circuit) == table


#: Malformed routed gate tables, ``(column, value, message)``.
MALFORMED_TABLES = [
    ("ops", "0 0 1 1 2 1", "truncated"),
    ("ops", "0 0 1 1 3 1 2", "unknown gate kind code 3"),
    ("ops", "0 3 1 1 2 1 2", "outside"),
    ("params", "0.5 0.25", "longer"),
    ("ops", [0, 0, 1, 1, 2, 1, 2], "must be strings"),
    ("kinds", [["h", 1, 0], ["rz", 1, 1], ["cx", -2, 0]], "malformed gate kind"),
    ("labels", [[9, "prep"]], "label"),
]


class TestStoredCircuitErrors:
    def _payload(self, column, value):
        circuit = QuantumCircuit(3, name="tiny")
        circuit.h(0)
        circuit.rz(0.5, 1)
        circuit.cx(1, 2)
        payload = result_to_payload(
            compile_uncached(CompileRequest(circuit=circuit, backend=grid_topology(2, 2)))
        )
        payload["routing"]["routed_circuit"] = {
            **circuit_to_payload(circuit), column: value
        }
        return payload

    @pytest.mark.parametrize("column, value, message", MALFORMED_TABLES)
    def test_a_malformed_table_raises_on_first_read(self, column, value, message):
        payload = self._payload(column, value)
        with pytest.raises(SerializationError, match=message):
            result_from_payload(payload, None)
        result = result_from_payload(payload, None, lazy=True)
        for _ in range(2):  # a failed read is not cached
            with pytest.raises(SerializationError, match=message):
                len(result.routed_circuit)

    @pytest.mark.parametrize("value, message", [(math.inf, "infinity"), (0, "at least one qubit")])
    def test_a_malformed_qubit_count_raises_at_call_time(self, value, message):
        payload = self._payload("num_qubits", value)
        for lazy in (False, True):
            with pytest.raises(SerializationError, match=message):
                result_from_payload(payload, None, lazy=lazy)
