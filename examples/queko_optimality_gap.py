"""QUEKO optimality-gap study: how close does each mapper get to the optimum?

Run with::

    python examples/queko_optimality_gap.py [--depth 20] [--instances 3]

QUEKO circuits (Tan & Cong) have a *known optimal depth* on the device they
were generated for.  This example generates a few QUEKO instances for the
Rigetti Ankaa-3 topology, scrambles their qubit labels, routes them with
Qlosure and every baseline, and reports each mapper's depth factor (routed
depth / optimal depth) and SWAP count -- the same methodology behind the
paper's Tables II and III.
"""

from __future__ import annotations

import argparse
import statistics

from repro.analysis.experiments import compare_mappers, depth_factor_table, swap_ratio_table
from repro.analysis.report import render_nested_table, render_records
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.backends import ankaa3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=15, help="QUEKO optimal depth")
    parser.add_argument("--instances", type=int, default=3, help="circuits to generate")
    args = parser.parse_args()

    backend = ankaa3()
    circuits = [
        generate_queko_circuit(backend, args.depth, seed=seed, name=f"queko-d{args.depth}-{seed}")
        for seed in range(args.instances)
    ]
    print(f"generated {len(circuits)} QUEKO circuits with optimal depth {args.depth} "
          f"on {backend.name} ({circuits[0].num_operations} QOPs each)\n")

    records = compare_mappers(circuits, backend)
    print(render_records(records))

    print("\naverage depth factor (routed depth / optimal depth, lower is better):")
    print(render_nested_table(depth_factor_table(records, split_depth=args.depth)))

    print("\naverage SWAP ratio relative to Qlosure (>1 means more SWAPs than Qlosure):")
    print(render_nested_table(swap_ratio_table(records)))

    qlosure_depths = [r.depth_factor for r in records if r.mapper_name == "qlosure"]
    print(f"\nQlosure mean depth factor: {statistics.mean(qlosure_depths):.2f}")


if __name__ == "__main__":
    main()
