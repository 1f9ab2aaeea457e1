"""Eq. 1 written the way the paper writes it: the test oracle of omega.

This module builds the paper's Sec. IV/V-B objects with the polyhedral-lite
library in :mod:`tests.polyhedral.isl`:

* the **use map** ``U : T -> Q x Q`` associating each logical time-step with
  the qubits used by the gate scheduled there,
* the **dependence relation** ``Rdep`` relating gate instances that share a
  logical qubit (in schedule order), and
* the **dependence weight** ``omega(g)``, the number of instances reachable
  from ``g`` in the transitive closure ``R+`` of ``Rdep`` (Eq. 1).

The router computes the same counts another way, on the engine's own
immediate-dependence DAG with reverse-topological bitset propagation
(``CircuitDAG.descendant_counts()``).  The tests check that both agree: the
transitive closure of the immediate per-qubit dependence edges equals the
transitive closure of the full sharing relation.
"""

from __future__ import annotations

from repro.circuit.circuit import QuantumCircuit
from tests.polyhedral.isl.closure import reachable_counts
from tests.polyhedral.isl.map_ import Map
from tests.polyhedral.isl.space import Space


def _gate_instances(circuit: QuantumCircuit) -> list[tuple[int, tuple[int, ...]]]:
    """Gate instances as (time step, qubit operands), skipping barriers."""
    instances = []
    time = 0
    for gate in circuit:
        if gate.is_barrier:
            continue
        instances.append((time, gate.qubits))
        time += 1
    return instances


def use_map(circuit: QuantumCircuit) -> Map:
    """The use map ``U : [t] -> [q1, q2]`` for two-qubit gates (paper Sec. V-B1).

    Single-qubit gates are represented with both output coordinates equal to
    the single operand, which keeps the map total over the circuit's
    time-steps.
    """
    space = Space.map_space(("t",), ("q1", "q2"))
    pairs = []
    for time, qubits in _gate_instances(circuit):
        if len(qubits) >= 2:
            pairs.append(((time,), (qubits[0], qubits[1])))
        else:
            pairs.append(((time,), (qubits[0], qubits[0])))
    return Map.from_pairs(space, pairs)


def dependence_relation(
    circuit: QuantumCircuit, immediate_only: bool = True
) -> Map:
    """The dependence relation ``Rdep`` over gate instances ``(t, q1, q2)``.

    With ``immediate_only`` (the default) only the per-qubit immediate
    predecessor/successor pairs are materialised -- the transitive closure of
    this relation equals the closure of the full qubit-sharing relation the
    paper writes down, at a fraction of the size.  Setting
    ``immediate_only=False`` materialises every sharing pair ``t1 < t2``
    exactly as in the paper's definition (quadratic; use on small circuits).
    """
    space = Space.map_space(("t1", "a1", "a2"), ("t2", "b1", "b2"))
    instances = _gate_instances(circuit)

    def triple(time: int, qubits: tuple[int, ...]) -> tuple[int, int, int]:
        if len(qubits) >= 2:
            return (time, qubits[0], qubits[1])
        return (time, qubits[0], qubits[0])

    pairs = []
    if immediate_only:
        last_on_qubit: dict[int, tuple[int, tuple[int, ...]]] = {}
        for time, qubits in instances:
            seen_sources = set()
            for qubit in qubits:
                if qubit in last_on_qubit:
                    source = last_on_qubit[qubit]
                    if source[0] not in seen_sources:
                        seen_sources.add(source[0])
                        pairs.append((triple(*source), triple(time, qubits)))
                last_on_qubit[qubit] = (time, qubits)
    else:
        for i, (t1, q1) in enumerate(instances):
            set1 = set(q1)
            for t2, q2 in instances[i + 1 :]:
                if set1 & set(q2):
                    pairs.append((triple(t1, q1), triple(t2, q2)))
    return Map.from_pairs(space, pairs)


def dependence_weights(circuit: QuantumCircuit) -> dict[int, int]:
    """Dependence weight ``omega`` for every gate instance, keyed by time-step.

    ``omega(g)`` is the number of gate instances transitively reachable from
    ``g`` through the dependence relation (Eq. 1 of the paper), computed
    through the polyhedral-lite map library at any circuit size.  The router
    reads the same counts, keyed by gate index, from
    ``CircuitDAG.descendant_counts()``.
    """
    relation = dependence_relation(circuit, immediate_only=True)
    counts = reachable_counts(relation)
    weights = {}
    for time, qubits in _gate_instances(circuit):
        key = (time, qubits[0], qubits[1]) if len(qubits) >= 2 else (time, qubits[0], qubits[0])
        weights[time] = counts.get(key, 0)
    return weights
