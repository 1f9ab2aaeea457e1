"""Quickstart: map a small circuit onto IBM Sherbrooke with Qlosure.

Run with::

    python examples/quickstart.py

The example builds a GHZ-state circuit, maps it with the Qlosure
dependence-driven mapper, verifies that the routed circuit is correct
(connectivity + dependence preservation), and prints the key quality
metrics alongside a LightSABRE baseline for comparison.
"""

from __future__ import annotations

from repro.api import CompileRequest, compile
from repro.benchgen.qasmbench import ghz_circuit
from repro.hardware.backends import sherbrooke
from repro.qasm.writer import circuit_to_qasm


def main() -> None:
    backend = sherbrooke()
    circuit = ghz_circuit(20)
    print(f"circuit : {circuit.name} ({circuit.num_qubits} qubits, {len(circuit)} gates, "
          f"depth {circuit.depth()})")
    print(f"backend : {backend.name} ({backend.num_qubits} qubits, "
          f"max degree {backend.max_degree()})")

    # Map with Qlosure (the paper's dependence-driven mapper); validation="full"
    # checks connectivity and dependence preservation of the routed circuit.
    request = CompileRequest(circuit=circuit, backend=backend, router="qlosure",
                             validation="full")
    result = compile(request)
    print("\n-- Qlosure ------------------------------------------")
    print(f"SWAPs inserted : {result.swaps_added}")
    print(f"depth          : {circuit.depth()} -> {result.routed_depth}")
    print(f"mapping time   : {result.route_seconds:.3f} s")

    # Compare against a SABRE baseline: the same request, another router.
    baseline = compile(request.with_router("lightsabre"))
    print("\n-- LightSABRE baseline ------------------------------")
    print(f"SWAPs inserted : {baseline.swaps_added}")
    print(f"depth          : {circuit.depth()} -> {baseline.routed_depth}")

    # The routed circuit can be exported back to OpenQASM.
    qasm = circuit_to_qasm(result.routed_circuit)
    print("\nfirst lines of the routed QASM:")
    print("\n".join(qasm.splitlines()[:8]))


if __name__ == "__main__":
    main()
