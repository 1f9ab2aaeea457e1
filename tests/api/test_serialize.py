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
from pathlib import Path

import pytest

from repro.api import (
    CompileRequest,
    PAYLOAD_VERSION,
    SerializationError,
    compile_uncached,
    result_from_payload,
    result_to_payload,
    router_names,
)
from repro.api.serialize import circuit_from_payload, circuit_to_payload
from repro.benchgen.qasmbench import qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.circuit.circuit import QuantumCircuit
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
