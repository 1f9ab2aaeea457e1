"""Tests for the wire protocol: request codecs and error mapping."""

import json

import pytest

from repro.api import CompileRequest, request_from_payload, request_to_payload
from repro.api.cache import request_fingerprint
from repro.api.result import CompileError
from repro.api.serialize import SerializationError
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.hardware.topologies import line_topology
from repro.serve.protocol import (
    ProtocolError,
    compile_error_body,
    decode_batch_body,
    decode_compile_body,
    error_body,
)


class TestRequestPayloadRoundTrip:
    def test_generate_request_round_trips(self):
        request = CompileRequest(
            generate="qft:8", backend="ankaa3", router="sabre", seed=7,
            validation="full", label="probe",
        )
        rebuilt = request_from_payload(request_to_payload(request))
        assert rebuilt == request
        assert request_fingerprint(rebuilt) == request_fingerprint(request)

    def test_qasm_path_request_round_trips(self, tmp_path):
        path = tmp_path / "c.qasm"
        request = CompileRequest(qasm=path, backend="sherbrooke", router="greedy")
        rebuilt = request_from_payload(request_to_payload(request))
        assert str(rebuilt.qasm) == str(path)
        assert rebuilt.router == "greedy"

    def test_in_memory_circuit_ships_as_a_gate_table(self):
        circuit = QuantumCircuit(3, name="labelled")
        circuit.append(Gate("h", (0,), label="prep"))
        circuit.rz(0.5, 1)
        circuit.cx(0, 1)
        circuit.append(Gate("cx", (1, 2), label="link"))
        request = CompileRequest(circuit=circuit, backend="ankaa3", router="greedy")
        payload = request_to_payload(request)
        assert payload["circuit"] == {
            "name": "labelled",
            "num_qubits": 3,
            "kinds": [["h", 1, 0], ["rz", 1, 1], ["cx", 2, 0]],
            "ops": "0 0 1 1 2 0 1 2 1 2",
            "params": "0.5",
            "labels": [[0, "prep"], [3, "link"]],
        }
        rebuilt = request_from_payload(json.loads(json.dumps(payload)))
        assert list(rebuilt.circuit) == list(circuit)
        # Labels are part of the fingerprint, so they must survive the wire.
        assert request_fingerprint(rebuilt) == request_fingerprint(request)

    def test_alias_router_fingerprints_identically_after_round_trip(self):
        request = CompileRequest(generate="ghz:6", router="pytket")
        rebuilt = request_from_payload(request_to_payload(request))
        assert request_fingerprint(rebuilt) == request_fingerprint(request)


class TestRequestPayloadRejections:
    def test_unknown_keys_are_rejected(self):
        with pytest.raises(SerializationError, match="unknown request payload keys"):
            request_from_payload({"generate": "ghz:4", "sede": 3})

    def test_zero_or_two_sources_are_rejected(self):
        with pytest.raises(SerializationError, match="exactly one"):
            request_from_payload({"backend": "ankaa3"})
        with pytest.raises(SerializationError, match="exactly one"):
            request_from_payload({"generate": "ghz:4", "qasm": "x.qasm"})

    def test_coupling_graph_backend_is_not_wire_serializable(self):
        request = CompileRequest(generate="ghz:4", backend=line_topology(5))
        with pytest.raises(SerializationError, match="CouplingGraph"):
            request_to_payload(request)

    def test_non_json_router_config_is_rejected(self):
        from repro.core.config import QlosureConfig

        request = CompileRequest(generate="ghz:4", router_config=QlosureConfig())
        with pytest.raises(SerializationError, match="router_config"):
            request_to_payload(request)

    @pytest.mark.parametrize("router", ["qlosure", "sabre"])
    def test_json_router_config_is_rejected_on_decode(self, router):
        # No router takes a JSON config, so such a request could only fail
        # inside the route pass (a 500); it is refused here, at the codec.
        with pytest.raises(SerializationError, match="router_config"):
            request_from_payload(
                {"generate": "ghz:4", "router": router, "router_config": {"seed": 3}}
            )

    def test_non_finite_seed_is_rejected(self):
        with pytest.raises(SerializationError, match="seed must be an integer"):
            request_from_payload(json.loads('{"generate": "ghz:4", "seed": 1e400}'))

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "3"])
    def test_non_integer_seed_is_rejected(self, seed):
        with pytest.raises(SerializationError, match="seed must be an integer"):
            request_from_payload({"generate": "ghz:4", "seed": seed})

    def test_version_mismatch_is_rejected(self):
        with pytest.raises(SerializationError, match="version"):
            request_from_payload({"generate": "ghz:4", "version": 999})

    def test_missing_version_defaults_to_current(self):
        rebuilt = request_from_payload({"generate": "ghz:4"})
        assert rebuilt.generate == "ghz:4"


class TestDecodeCompileBody:
    def test_happy_path_with_priority(self):
        request, priority = decode_compile_body(
            {"generate": "ghz:6", "router": "greedy", "priority": -2}
        )
        assert request.router == "greedy"
        assert priority == -2

    def test_priority_defaults_to_zero(self):
        _, priority = decode_compile_body({"generate": "ghz:6"})
        assert priority == 0

    def test_non_object_body_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_compile_body([1, 2, 3])
        with pytest.raises(ProtocolError):
            decode_compile_body(None)

    def test_non_integer_priority_is_rejected(self):
        with pytest.raises(ProtocolError, match="priority"):
            decode_compile_body({"generate": "ghz:6", "priority": "high"})
        with pytest.raises(ProtocolError, match="priority"):
            decode_compile_body({"generate": "ghz:6", "priority": True})

    def test_unknown_router_rejected_at_admission(self):
        with pytest.raises(ProtocolError, match="unknown router"):
            decode_compile_body({"generate": "ghz:6", "router": "nope"})

    def test_unknown_backend_rejected_at_admission(self):
        with pytest.raises(ProtocolError, match="unknown backend"):
            decode_compile_body({"generate": "ghz:6", "backend": "nope"})

    def test_invalid_validation_level_rejected_at_admission(self):
        with pytest.raises(ProtocolError, match="validation"):
            decode_compile_body({"generate": "ghz:6", "validation": "paranoid"})

    def test_router_config_rejected_at_admission(self):
        with pytest.raises(ProtocolError, match="router_config"):
            decode_compile_body({"generate": "ghz:6", "router_config": {"seed": 1}})

    @pytest.mark.parametrize(
        "placement,options",
        [
            ("bidirectional", {"bogus": 1}),
            ("bidirectional", {"passes": "x"}),
            ("identity", {"passes": "x"}),
        ],
    )
    def test_malformed_placement_options_rejected_at_admission(self, placement, options):
        body = {"generate": "ghz:6", "placement": placement, "placement_options": options}
        with pytest.raises(ProtocolError, match="placement_options"):
            decode_compile_body(body)


class TestDecodeBatchBody:
    def test_happy_path(self):
        requests, priority = decode_batch_body(
            {"requests": [{"generate": f"ghz:{n}"} for n in (4, 5)], "priority": 1}
        )
        assert [r.generate for r in requests] == ["ghz:4", "ghz:5"]
        assert priority == 1

    def test_empty_or_missing_requests_rejected(self):
        with pytest.raises(ProtocolError, match="requests"):
            decode_batch_body({})
        with pytest.raises(ProtocolError, match="requests"):
            decode_batch_body({"requests": []})

    def test_failing_entry_names_its_index(self):
        with pytest.raises(ProtocolError, match="batch request 1"):
            decode_batch_body(
                {"requests": [{"generate": "ghz:4"}, {"router": "nope", "generate": "ghz:4"}]}
            )


class TestErrorMapping:
    def test_client_phases_map_to_400(self):
        for phase in ("request", "load", "protocol"):
            status, body = compile_error_body(CompileError("bad", phase=phase))
            assert status == 400
            assert body["error"]["phase"] == phase

    def test_pipeline_phases_map_to_500(self):
        for phase in ("place", "route", "validate", "metrics", "worker", "inject"):
            status, body = compile_error_body(CompileError("boom", phase=phase))
            assert status == 500
            assert body["ok"] is False

    def test_error_body_shape_matches_compile_error_summary(self):
        status, from_error = compile_error_body(CompileError("x", phase="route"))
        synthetic = error_body("x")
        assert set(from_error["error"]) == set(synthetic["error"])
