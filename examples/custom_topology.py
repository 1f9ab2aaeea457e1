"""Map circuits onto a user-defined QPU topology and study the ablation variants.

Run with::

    python examples/custom_topology.py

The example shows how to (a) describe a custom device as a coupling graph,
(b) run the Qlosure ablation variants of the paper's Fig. 8 on it, and
(c) use the bidirectional forward/backward pass to find a better initial
layout than the identity placement.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.api import CompileRequest, compile
from repro.benchgen.qasmbench import qaoa_circuit
from repro.core.config import QlosureConfig
from repro.hardware.coupling import CouplingGraph


def build_custom_device() -> CouplingGraph:
    """A 20-qubit 'ladder with rungs' device: two chains of 10 with cross links."""
    edges = []
    for i in range(9):
        edges.append((i, i + 1))            # top rail
        edges.append((10 + i, 11 + i))      # bottom rail
    for i in range(0, 10, 2):
        edges.append((i, 10 + i))           # every other rung
    return CouplingGraph(20, edges, name="ladder-20")


def main() -> None:
    device = build_custom_device()
    circuit = qaoa_circuit(16, layers=2, seed=3)
    print(f"device : {device}")
    print(f"circuit: {circuit.name} with {len(circuit)} gates, depth {circuit.depth()}\n")

    variants = {
        "distance-only": QlosureConfig.distance_only(),
        "layer-adjusted": QlosureConfig.layer_adjusted(),
        "dependency-weighted": QlosureConfig.dependency_weighted(),
    }
    rows = []
    for name, config in variants.items():
        result = compile(CompileRequest(circuit=circuit, backend=device, router="qlosure",
                                        router_config=config, validation="full"))
        rows.append([name, result.swaps_added, result.routed_depth,
                     f"{result.route_seconds:.2f}s"])

    # Variant (d): the full cost function plus a bidirectional initial layout.
    bidirectional = compile(CompileRequest(circuit=circuit, backend=device, router="qlosure",
                                           placement="bidirectional", validation="full"))
    rows.append(["bidirectional", bidirectional.swaps_added, bidirectional.routed_depth,
                 f"{bidirectional.route_seconds:.2f}s"])

    print(format_table(["variant", "swaps", "depth", "time"], rows,
                       title="Fig. 8-style ablation on the custom device"))
    print("\ninitial layout found by the forward/backward pass:")
    print(f"  {bidirectional.routing.initial_layout}")


if __name__ == "__main__":
    main()
