"""Error-aware mapping: route around noisy couplers (the paper's future-work direction).

Run with::

    python examples/error_aware_mapping.py

The paper's conclusion proposes combining dependence information with
error-aware heuristics.  This example attaches a heterogeneous noise model to
the Ankaa-3 coupling graph, maps the same circuit with plain Qlosure and with
the error-aware variant (which replaces the hop-count distance matrix by a
log-infidelity distance), and compares the estimated success probability of
the two routed circuits.
"""

from __future__ import annotations

from repro.api import CompileRequest, compile
from repro.benchgen.qasmbench import qaoa_circuit
from repro.circuit.validation import verify_routing
from repro.core.error_aware import ErrorAwareQlosureRouter
from repro.hardware.backends import ankaa3
from repro.hardware.noise import NoiseModel, success_probability


def main() -> None:
    backend = ankaa3()
    noise = NoiseModel.synthetic(backend, median_two_qubit_error=0.012, spread=0.8, seed=11)
    circuit = qaoa_circuit(24, layers=2, seed=5)
    print(f"circuit : {circuit.name} ({len(circuit)} gates, depth {circuit.depth()})")
    print(f"backend : {backend.name} with synthetic calibration "
          f"(edge error {min(noise.two_qubit_error.values()):.4f}"
          f" .. {max(noise.two_qubit_error.values()):.4f})\n")

    plain = compile(CompileRequest(circuit=circuit, backend=backend, router="qlosure",
                                   validation="full"))
    plain_probability = success_probability(plain.routed_circuit, noise)

    # The error-aware variant takes a noise model, so it is built directly
    # rather than through the router registry.
    aware = ErrorAwareQlosureRouter(backend, noise).run(circuit)
    verify_routing(circuit, aware.routed_circuit, backend.edges(), aware.initial_layout)
    aware_probability = aware.metadata["estimated_success_probability"]

    print("                       swaps   depth   est. success probability")
    print(f"Qlosure (hop count) : {plain.swaps_added:6d}  {plain.routed_depth:6d}   "
          f"{plain_probability:.3e}")
    print(f"Qlosure (error-aware): {aware.swaps_added:5d}  {aware.routed_depth:6d}   "
          f"{aware_probability:.3e}")
    if aware_probability >= plain_probability:
        gain = aware_probability / max(plain_probability, 1e-300)
        print(f"\nerror-aware routing improves the success estimate by {gain:.2f}x")
    else:
        print("\nerror-aware routing did not improve this instance "
              "(it trades extra SWAPs for cleaner couplers).")


if __name__ == "__main__":
    main()
