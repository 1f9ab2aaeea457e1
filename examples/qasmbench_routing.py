"""Route QASMBench-style application circuits onto the paper's back-ends.

Run with::

    python examples/qasmbench_routing.py [--backend sherbrooke] [--qubits 24]

The example mirrors the paper's Tables V-VI workflow at a small scale: it
generates several application-circuit families (QRAM, QuGAN, QFT, adder,
QAOA), routes each with Qlosure and the LightSABRE baseline, and prints a
per-circuit comparison plus the average SWAP/depth improvement.
"""

from __future__ import annotations

import argparse

from repro.analysis.experiments import compare_mappers, qasmbench_table
from repro.analysis.report import format_table
from repro.benchgen.qasmbench import qasmbench_circuit
from repro.hardware.backends import backend_by_name


FAMILIES = ("qram", "qugan", "qft", "adder", "qaoa")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="ankaa3", help="target backend name")
    parser.add_argument("--qubits", type=int, default=20, help="qubit count per circuit")
    args = parser.parse_args()

    backend = backend_by_name(args.backend)
    circuits = [qasmbench_circuit(family, args.qubits) for family in FAMILIES]
    records = compare_mappers(circuits, backend, mapper_names=("qlosure", "lightsabre"))
    rows = [
        [r.circuit_name, r.qops, r.mapper_name, r.swaps, r.routed_depth,
         f"{r.runtime_seconds:.2f}s"]
        for r in records
    ]
    print(format_table(["circuit", "qops", "mapper", "swaps", "depth", "time"], rows))

    table = qasmbench_table(records)
    print("\nQlosure average improvement over each baseline:")
    for mapper, values in table["improvement"].items():
        print(f"  vs {mapper:12s}: {values['swaps']:+.1f}% swaps, {values['depth']:+.1f}% depth")


if __name__ == "__main__":
    main()
