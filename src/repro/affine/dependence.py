"""Dependence analysis on the affine representation.

This module implements the paper's Sec. IV/V-B machinery:

* the **use map** ``U : T -> Q x Q`` associating each logical time-step with
  the qubits used by the gate scheduled there,
* the **dependence relation** ``Rdep`` relating gate instances that share a
  logical qubit (in schedule order),
* the **transitive closure** ``R+`` of the dependence relation, and
* the **dependence weight** ``omega(g)`` = number of transitive dependents of
  gate ``g``, which drives the Qlosure cost function.

Two computation paths are provided and tested against each other:

* :func:`dependence_weights` -- the *ISL oracle*: it materialises ``Rdep`` as
  a polyhedral map and counts reachable instances through ``isl/`` (exact,
  Eq. 1 as the paper writes it), and
* :class:`DependenceAnalysis` -- the *scalable path* the router uses: the
  same ``omega`` counts computed directly on the immediate-dependence DAG
  with reverse-topological bitset propagation.  Both give identical weights
  because the transitive closure of the immediate per-qubit dependence edges
  equals the transitive closure of the full sharing relation.
"""

from __future__ import annotations

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.isl.closure import reachable_counts, transitive_closure
from repro.isl.map_ import Map
from repro.isl.space import Space


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
    through the ``isl/`` map library at any circuit size.  The router reads
    the same counts from :class:`DependenceAnalysis`.
    """
    relation = dependence_relation(circuit, immediate_only=True)
    counts = reachable_counts(relation)
    weights = {}
    for time, qubits in _gate_instances(circuit):
        key = (time, qubits[0], qubits[1]) if len(qubits) >= 2 else (time, qubits[0], qubits[0])
        weights[time] = counts.get(key, 0)
    return weights


class DependenceAnalysis:
    """Bundled dependence information for a circuit.

    The analysis is computed once per circuit and queried by the mapper:
    ``omega`` weights, the transitive closure (when materialised), ASAP
    levels, and the immediate-dependence DAG.
    """

    def __init__(self, circuit: QuantumCircuit, materialize_closure: bool = False):
        self._circuit = circuit
        self._dag = CircuitDAG(circuit, include_single_qubit=True)
        self._weights_by_index = self._dag.descendant_counts()
        self._closure: Map | None = None
        if materialize_closure:
            relation = dependence_relation(circuit, immediate_only=True)
            self._closure = transitive_closure(relation)

    @property
    def circuit(self) -> QuantumCircuit:
        """The analysed circuit."""
        return self._circuit

    @property
    def dag(self) -> CircuitDAG:
        """The immediate-dependence DAG."""
        return self._dag

    @property
    def closure(self) -> Map | None:
        """The transitive dependence relation ``R+`` (when materialised)."""
        return self._closure

    def weight(self, gate_index: int) -> int:
        """Dependence weight ``omega`` of the gate at circuit index ``gate_index``."""
        return self._weights_by_index.get(gate_index, 0)

    def weights(self) -> dict[int, int]:
        """All weights keyed by circuit gate index."""
        return dict(self._weights_by_index)

    def critical_gates(self, top: int = 10) -> list[int]:
        """Gate indices with the largest dependence weights (most critical first)."""
        ranked = sorted(self._weights_by_index.items(), key=lambda kv: -kv[1])
        return [index for index, _ in ranked[:top]]

    def levels(self) -> dict[int, int]:
        """ASAP dependence levels of every gate."""
        return self._dag.asap_levels()
