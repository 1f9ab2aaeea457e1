"""A tour of the affine abstractions and dependence analysis behind Qlosure.

Run with::

    python examples/dependence_analysis_tour.py

This example walks through the paper's pipeline on the motivating circuit of
Fig. 1: lifting the QASM trace to macro-gates (the QRANE step), reading the
use map off the gates, counting the dependence relation and its transitive
closure on the dependence DAG the router uses, computing the dependence
weight omega of every gate (Eq. 1), and showing how those weights steer a
SWAP decision.  The tests check the same counts against Eq. 1 written as the
paper writes it, a polyhedral relation and its closure
(``tests/polyhedral/``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.affine.lifter import lift_circuit, lifting_report
from repro.api import CompileRequest, compile
from repro.circuit.dag import CircuitDAG
from repro.core.config import QlosureConfig
from repro.hardware.coupling import CouplingGraph
from repro.qasm.loader import circuit_from_qasm


FIG1_QASM = """
OPENQASM 2.0;
qreg q[6];
CX q[0],q[1];
CX q[2],q[3];
CX q[1],q[2];
CX q[3],q[5];
CX q[0],q[2];
CX q[1],q[5];
"""

#: The Fig. 1c device: a small tree-shaped 6-qubit QPU.
FIG1_DEVICE = CouplingGraph(6, [(0, 1), (1, 2), (1, 3), (2, 4), (4, 5)], name="fig1-qpu")


def main() -> None:
    circuit = circuit_from_qasm(FIG1_QASM, name="fig1")
    print("1) Input circuit (Fig. 1b of the paper)")
    for index, gate in enumerate(circuit):
        print(f"   G{index}: {gate}")

    print("\n2) QRANE-style lifting to macro-gates")
    program = lift_circuit(circuit)
    for statement in program:
        print(f"   {statement}")
    print(f"   report: {lifting_report(program)}")

    print("\n3) Use map U : [t] -> [q1, q2]")
    for time, gate in enumerate(circuit):
        print(f"   t={time} -> qubits {gate.qubits}")

    print("\n4) Dependence relation Rdep and its transitive closure R+")
    dag = CircuitDAG(circuit)
    weights = dag.descendant_counts()
    print(f"   |Rdep| = {len(list(dag.dependence_pairs()))} immediate dependences")
    print(f"   |R+|   = {sum(weights.values())} transitive dependences")

    print("\n5) Dependence weights omega (transitive dependent counts)")
    for index, weight in weights.items():
        print(f"   omega(G{index}) = {weight}")
    print(f"   most critical gate: G{max(weights, key=weights.get)}")

    print("\n6) Routing the circuit on the Fig. 1c device")
    request = CompileRequest(circuit=circuit, backend=FIG1_DEVICE, router="qlosure",
                             validation="full")
    full = compile(request)
    distance_only = compile(replace(request, router_config=QlosureConfig.distance_only()))
    print(f"   Qlosure (dependence-driven): {full.swaps_added} SWAPs, depth {full.routed_depth}")
    print(f"   distance-only ablation     : {distance_only.swaps_added} SWAPs, "
          f"depth {distance_only.routed_depth}")


if __name__ == "__main__":
    main()
