"""Oracles for the QASM reader: writer round-trips and a pinned corpus.

* Round-trip: ``circuit_from_qasm(circuit_to_qasm(c))`` reproduces ``c``
  gate for gate (name, qubits, parameter bits, label) and width, for every
  QASMBench family at two sizes and for the six smoke-fixture circuits.
* Pinned corpus: the hand-written sources under ``tests/data/qasm-corpus/``
  exercise user gates with parameters, nested gates, broadcast, ``if``,
  measurements, barriers, comments and every number form.  Their
  ``(num_qubits, gate count, gate digest)`` under each flag pair is pinned in
  ``tests/data/qasm-corpus.json``; the record was taken with the earlier
  lexer/parser/AST front end, so the reader builds the circuits it built.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.perf_trajectory import smoke_fixture
from repro.benchgen.qasmbench import qasmbench_circuit
from repro.qasm.loader import circuit_from_qasm
from repro.qasm.writer import circuit_to_qasm

DATA = Path(__file__).resolve().parent.parent / "data"
CORPUS = DATA / "qasm-corpus"
PINNED = json.loads((DATA / "qasm-corpus.json").read_text())

FAMILIES = (
    "ghz", "cat", "bv", "qft", "wstate", "ising", "qaoa", "qugan", "qram", "adder", "multiplier",
)


def gate_digest(circuit) -> str:
    digest = hashlib.sha256()
    for gate in circuit:
        digest.update(
            repr((gate.name, gate.qubits, [p.hex() for p in gate.params], gate.label)).encode()
        )
    return digest.hexdigest()


def assert_round_trips(circuit) -> None:
    recovered = circuit_from_qasm(circuit_to_qasm(circuit))
    assert recovered.num_qubits == circuit.num_qubits
    assert len(recovered) == len(circuit)
    for original, read in zip(circuit, recovered):
        assert (read.name, read.qubits, read.label) == (original.name, original.qubits, original.label)
        assert [p.hex() for p in read.params] == [p.hex() for p in original.params]


class TestRoundTrip:
    @pytest.mark.parametrize("qubits", [9, 16])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_qasmbench_family(self, family, qubits):
        assert_round_trips(qasmbench_circuit(family, qubits))

    def test_every_family_is_covered(self):
        from repro.benchgen.qasmbench import _FAMILIES

        assert set(FAMILIES) == set(_FAMILIES)

    @pytest.mark.parametrize("index", range(6))
    def test_smoke_fixture(self, index):
        instances = smoke_fixture()
        assert len(instances) == 6
        assert_round_trips(instances[index].circuit)


class TestPinnedCorpus:
    @pytest.mark.parametrize("name", sorted(PINNED))
    @pytest.mark.parametrize("measurements", [False, True])
    @pytest.mark.parametrize("decompose", [False, True])
    def test_source_builds_the_pinned_circuit(self, name, measurements, decompose):
        circuit = circuit_from_qasm(
            (CORPUS / name).read_text(),
            include_measurements=measurements,
            decompose_multiqubit=decompose,
        )
        key = f"measurements={int(measurements)},decompose={int(decompose)}"
        assert [circuit.num_qubits, len(circuit), gate_digest(circuit)] == PINNED[name][key]

    def test_every_corpus_file_is_pinned(self):
        assert sorted(path.name for path in CORPUS.glob("*.qasm")) == sorted(PINNED)
