"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology, line_topology, ring_topology

_REPRO_LOGGER = logging.getLogger("repro")
_SHIPPED_LOGGING = (
    _REPRO_LOGGER.level,
    list(_REPRO_LOGGER.handlers),
    _REPRO_LOGGER.propagate,
)


def _restore_repro_logger() -> None:
    level, handlers, propagate = _SHIPPED_LOGGING
    _REPRO_LOGGER.setLevel(level)
    _REPRO_LOGGER.handlers[:] = handlers
    _REPRO_LOGGER.propagate = propagate


@pytest.fixture(autouse=True)
def _reset_repro_logger():
    """Leave the 'repro' logger the way the library ships it: unconfigured.

    ``setup_logging`` (which ``repro.cli.main`` calls) stops propagation and
    attaches a stderr handler; ``caplog`` in any later test would then see
    nothing.  Restored before each test too, because a module-scoped
    fixture may have run ``main`` outside every test.
    """
    _restore_repro_logger()
    yield
    _restore_repro_logger()


@pytest.fixture
def line5() -> CouplingGraph:
    """A 5-qubit linear device."""
    return line_topology(5)


@pytest.fixture
def ring6() -> CouplingGraph:
    """A 6-qubit ring device."""
    return ring_topology(6)


@pytest.fixture
def grid3x3() -> CouplingGraph:
    """A 3x3 grid device."""
    return grid_topology(3, 3)


@pytest.fixture
def grid4x4() -> CouplingGraph:
    """A 4x4 grid device."""
    return grid_topology(4, 4)


@pytest.fixture
def paper_example_circuit() -> QuantumCircuit:
    """The 6-qubit motivating example of Fig. 1b of the paper."""
    circuit = QuantumCircuit(6, name="fig1-example")
    circuit.cx(0, 1)  # G0
    circuit.cx(2, 3)  # G1
    circuit.cx(1, 2)  # G2
    circuit.cx(3, 5)  # G3
    circuit.cx(0, 2)  # G4
    circuit.cx(1, 5)  # G5
    return circuit


@pytest.fixture
def paper_example_device() -> CouplingGraph:
    """The 6-qubit QPU topology of Fig. 1c of the paper.

    Edges: p0-p1, p1-p2, p2-p4, p1-p3 (p0/p3 row), p4-p5 chain -- reproduced
    from the figure as a tree-shaped 6-qubit device.
    """
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (4, 5)]
    return CouplingGraph(6, edges, name="fig1-device")


@pytest.fixture
def ghz8() -> QuantumCircuit:
    """An 8-qubit GHZ circuit."""
    return ghz_circuit(8)


@pytest.fixture
def qft6() -> QuantumCircuit:
    """A 6-qubit QFT circuit."""
    return qft_circuit(6)


class CodecCalls:
    """Gate-table codec calls, counted by wrapping the module-level names.

    ``decodes`` counts :func:`repro.api.serialize.circuit_from_payload`
    calls.  A :func:`~repro.api.serialize.circuit_to_payload` call counts in
    ``encodes`` when it ran the encoder, which iterates the circuit and so
    leaves its gates read, and in ``copies`` when it handed back the stored
    table of a circuit whose gates were never read.
    """

    def __init__(self):
        self.decodes = 0
        self.encodes = 0
        self.copies = 0

    def counts(self) -> tuple[int, int, int]:
        return self.decodes, self.encodes, self.copies


@pytest.fixture
def codec_calls(monkeypatch) -> CodecCalls:
    """Count gate-table decodes and encodes for the rest of the test."""
    import repro.api.serialize as serialize

    calls = CodecCalls()
    decode, encode = serialize.circuit_from_payload, serialize.circuit_to_payload

    def counting_decode(payload):
        calls.decodes += 1
        return decode(payload)

    def counting_encode(circuit):
        payload = encode(circuit)
        if "_gates" in vars(circuit):
            calls.encodes += 1
        else:
            calls.copies += 1
        return payload

    monkeypatch.setattr(serialize, "circuit_from_payload", counting_decode)
    monkeypatch.setattr(serialize, "circuit_to_payload", counting_encode)
    return calls
