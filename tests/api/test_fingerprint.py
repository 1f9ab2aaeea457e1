"""Sensitivity and equivalence tests for :func:`repro.api.request_fingerprint`.

The fingerprint is the cache key, so it must move with every
output-affecting request field (a stale hit would silently serve the wrong
routed circuit) and must *not* move across spellings of the same request
(alias vs canonical router name, backend name vs its resolved coupling
graph, equal-content circuits or QASM files, equivalent ``generate=`` specs)
-- otherwise equal work misses.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.api import CompileError, CompileRequest, request_fingerprint
from repro.api.cache import _circuit_token
from repro.api.pipeline import load_circuit
from repro.api.serialize import circuit_from_payload, circuit_to_payload
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.core.config import QlosureConfig
from repro.hardware.backends import sherbrooke
from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology
from tests.api.test_serialize import repeating_circuits

BELL_QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'


def base_request() -> CompileRequest:
    return CompileRequest(
        circuit=ghz_circuit(6),
        backend=grid_topology(3, 3),
        router="sabre",
        seed=0,
        placement="identity",
        validation="none",
    )


#: One output-affecting mutation per CompileRequest field.
FIELD_MUTATIONS = {
    "circuit": {"circuit": qft_circuit(6)},
    "backend": {"backend": grid_topology(4, 4)},
    "router": {"router": "tket"},
    "seed": {"seed": 7},
    "placement": {"placement": "greedy"},
    "placement_options": {"placement": "bidirectional",
                          "placement_options": {"passes": 2}},
    "router_config": {"router": "qlosure",
                      "router_config": QlosureConfig(seed=3)},
    "validation": {"validation": "full"},
    "label": {"label": "renamed"},
}


class TestSensitivity:
    @pytest.mark.parametrize("field", sorted(FIELD_MUTATIONS))
    def test_mutating_each_field_changes_the_fingerprint(self, field):
        base = base_request()
        mutated = replace(base, **FIELD_MUTATIONS[field])
        assert request_fingerprint(mutated) != request_fingerprint(base), (
            f"mutating {field!r} must change the fingerprint"
        )

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_non_int_seed_keys_apart_from_its_integer_part(self, seed):
        base = base_request()
        assert request_fingerprint(base.with_seed(seed)) != request_fingerprint(
            base.with_seed(int(seed))
        )

    def test_qasm_source_content_changes_the_fingerprint(self, tmp_path):
        path = tmp_path / "bell.qasm"
        path.write_text(BELL_QASM)
        before = request_fingerprint(CompileRequest(qasm=path, backend="sherbrooke"))
        path.write_text(BELL_QASM + "x q[1];\n")
        after = request_fingerprint(CompileRequest(qasm=path, backend="sherbrooke"))
        assert before != after

    def test_generate_spec_changes_the_fingerprint(self):
        a = request_fingerprint(CompileRequest(generate="qft:8"))
        b = request_fingerprint(CompileRequest(generate="qft:9"))
        c = request_fingerprint(CompileRequest(generate="ghz:8"))
        assert len({a, b, c}) == 3

    def test_equivalent_generate_specs_share_one_fingerprint(self):
        spellings = ["qft:8", "QFT:8", "qft: 8", "qft:08", " Qft :8 "]
        fingerprints = {request_fingerprint(CompileRequest(generate=spec)) for spec in spellings}
        assert len(fingerprints) == 1
        # the load pass builds one circuit from every spelling
        circuits = [load_circuit(generate=spec) for spec in spellings]
        assert len({(c.name, tuple((g.name, g.qubits) for g in c)) for c in circuits}) == 1
        assert request_fingerprint(CompileRequest(generate="qft")) == request_fingerprint(
            CompileRequest(generate="qft:20")
        )

    def test_a_generate_spec_that_does_not_parse_keys_on_its_text(self):
        a = request_fingerprint(CompileRequest(generate="qft:eight"))
        b = request_fingerprint(CompileRequest(generate=" qft:eight "))
        c = request_fingerprint(CompileRequest(generate="qft:nine"))
        assert a == b != c
        with pytest.raises(CompileError, match="cannot generate"):
            load_circuit(generate="qft:eight")

    def test_circuit_gate_content_not_identity_is_keyed(self):
        # Two distinct objects, same gates -> equal; one extra gate -> different.
        a = ghz_circuit(6)
        b = ghz_circuit(6)
        extended = ghz_circuit(6)
        extended.x(0)
        base = base_request()
        fp = lambda c: request_fingerprint(replace(base, circuit=c))  # noqa: E731
        assert fp(a) == fp(b)
        assert fp(a) != fp(extended)

    def test_appending_to_a_fingerprinted_circuit_invalidates_the_memo(self):
        # the gate-stream digest is memoized on the circuit object with a
        # gate-count guard; growing the circuit must produce a fresh digest
        circuit = ghz_circuit(6)
        base = base_request()
        before = request_fingerprint(replace(base, circuit=circuit))
        assert before == request_fingerprint(replace(base, circuit=circuit))
        circuit.x(0)
        assert request_fingerprint(replace(base, circuit=circuit)) != before

    def test_circuit_name_is_part_of_the_key(self):
        # The circuit name lands in the metrics record, so renaming must miss.
        base = base_request()
        renamed = ghz_circuit(6)
        renamed.name = "something-else"
        assert request_fingerprint(replace(base, circuit=renamed)) != request_fingerprint(base)


class TestGateStreamDigest:
    @given(repeating_circuits())
    @settings(max_examples=150, deadline=None)
    def test_a_decoded_circuit_digests_as_its_gates_one_by_one(self, circuit):
        """The gate-stream digest is the per-gate formula, decoded or not.

        A decoded circuit repeats one object per distinct gate; ``-0.0`` and
        ``0.0`` (equal, with different reprs) and ``nan`` stay apart.  A
        faster token (one format per distinct gate, or one from the table's
        keys) must keep this digest.
        """
        decoded = circuit_from_payload(json.loads(json.dumps(circuit_to_payload(circuit))))
        digest = hashlib.sha256(str(decoded.num_qubits).encode())
        for gate in decoded:
            digest.update(repr((gate.name, gate.qubits, gate.params, gate.label)).encode())
        assert _circuit_token(decoded)["gates"] == digest.hexdigest()
        assert _circuit_token(circuit)["gates"] == digest.hexdigest()


class TestEquivalence:
    def test_equal_requests_produce_equal_fingerprints(self):
        assert request_fingerprint(base_request()) == request_fingerprint(base_request())

    @pytest.mark.parametrize(
        "canonical,alias",
        [("tket", "pytket"), ("tket", "tket-like"), ("qmap", "qmap-like"),
         ("tket", "TKET"), ("sabre", " sabre ")],
    )
    def test_router_alias_and_canonical_name_fingerprint_identically(
        self, canonical, alias
    ):
        base = base_request()
        assert request_fingerprint(
            replace(base, router=canonical)
        ) == request_fingerprint(replace(base, router=alias))

    def test_backend_name_matches_resolved_coupling_graph(self):
        base = base_request()
        by_name = request_fingerprint(replace(base, backend="sherbrooke"))
        by_graph = request_fingerprint(replace(base, backend=sherbrooke()))
        assert by_name == by_graph

    def test_distinct_graphs_with_equal_content_fingerprint_identically(self):
        edges = [(0, 1), (1, 2)]
        a = CouplingGraph(3, edges, name="line")
        b = CouplingGraph(3, list(reversed(edges)), name="line")
        base = base_request()
        assert request_fingerprint(replace(base, backend=a)) == request_fingerprint(
            replace(base, backend=b)
        )

    def test_same_qasm_content_different_path_same_stem_hits(self, tmp_path):
        first = tmp_path / "a" / "bell.qasm"
        second = tmp_path / "b" / "bell.qasm"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text(BELL_QASM)
        assert request_fingerprint(
            CompileRequest(qasm=first, backend="sherbrooke")
        ) == request_fingerprint(CompileRequest(qasm=second, backend="sherbrooke"))

    def test_different_stem_misses_because_it_names_the_metrics(self, tmp_path):
        first = tmp_path / "bell.qasm"
        second = tmp_path / "pair.qasm"
        for path in (first, second):
            path.write_text(BELL_QASM)
        assert request_fingerprint(
            CompileRequest(qasm=first, backend="sherbrooke")
        ) != request_fingerprint(CompileRequest(qasm=second, backend="sherbrooke"))


class TestFormat:
    def test_fingerprint_is_a_sha256_hex_digest(self):
        fingerprint = request_fingerprint(base_request())
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_fingerprinting_never_raises_on_bad_names(self, tmp_path):
        # Unknown router/backend and unreadable QASM fail later, in compile();
        # the fingerprint must stay total so the cache layer never masks the
        # pipeline's one-line error messages.
        request_fingerprint(CompileRequest(generate="qft:6", router="does-not-exist"))
        request_fingerprint(CompileRequest(generate="qft:6", backend="no-such-device"))
        request_fingerprint(
            CompileRequest(qasm=tmp_path / "missing.qasm", backend="sherbrooke")
        )


class TestPinnedFingerprints:
    """Literal cache keys of one request per circuit source.

    Existing disk-cache entries and served clients are addressed by these
    digests, so they must not move unless ``CACHE_SCHEMA_VERSION`` or
    ``PAYLOAD_VERSION`` is bumped on purpose.
    """

    def test_circuit_request(self):
        pinned = Path(__file__).resolve().parent.parent / "data" / "payload-v2.json"
        circuit = circuit_from_payload(json.loads(pinned.read_text()))
        request = CompileRequest(circuit=circuit, backend="sherbrooke", router="sabre")
        assert request_fingerprint(request) == (
            "5cb4d77f9cfa207d8ec8340e9ee06860aa196afcbd4cc1d72758a2d5cf98917d"
        )

    def test_qasm_request(self, tmp_path):
        path = tmp_path / "bell.qasm"
        path.write_text(BELL_QASM)
        request = CompileRequest(qasm=path, backend="sherbrooke", router="sabre")
        assert request_fingerprint(request) == (
            "8739ad9f07fcd8f233e9d917ac542f3be5eaf85ef4ef690d5332ad36415edf41"
        )

    def test_generate_request(self):
        request = CompileRequest(generate="qft:8", backend="sherbrooke", router="qlosure")
        assert request_fingerprint(request) == (
            "7ac6468702b17935cb95732ed1efd70a6d0396138daa8d55fa3a25ea28905504"
        )

    def test_bidirectional_request(self):
        # Bidirectional passes route with the request's own router, so the
        # strategy keys under its own placement token; when the passes always
        # ran Qlosure, this request keyed fbfe0c99... instead.
        request = CompileRequest(
            generate="qft:8",
            backend="sherbrooke",
            router="sabre",
            placement="bidirectional",
            placement_options={"passes": 1},
        )
        assert request_fingerprint(request) == (
            "7a7f99318104864a23a3c77c2d7c8406d4d7936309efcf1e51c42e7ea19adef2"
        )
