"""Figure 2: motivating comparison of all mappers on two circuits and two QPUs.

The paper's Fig. 2 maps (i) a 54-qubit QUEKO circuit and (ii) an 18-qubit
QASMBench circuit onto IBM Sherbrooke and Rigetti Ankaa-3, reporting the
depth increase (Delta = routed depth - initial depth) and the SWAP count for
LightSABRE, QMAP, tket, Cirq and Qlosure.  The benchmark regenerates the same
grid at reduced scale and asserts Qlosure's headline property: it never
inserts more SWAPs than the best baseline by more than a small margin, and on
the dependence-rich QUEKO circuit it inserts the fewest SWAPs outright.
"""

from __future__ import annotations

from repro.analysis.config import bench_scale
from repro.analysis.experiments import compare_mappers
from repro.analysis.report import format_table
from repro.benchgen.qasmbench import qugan_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.backends import ankaa3, sherbrooke
from repro.hardware.topologies import grid_topology

from benchmarks.conftest import print_table


def _regenerate():
    scale = bench_scale()
    depth = max(10, int(round(30 * scale.scale)))
    generation = grid_topology(6, 9, name="sycamore-54-grid")
    queko54 = generate_queko_circuit(generation, depth, seed=17, name="queko-54qbt-deep")
    qasm18 = qugan_circuit(18)
    results = {}
    for backend_name, backend in (("sherbrooke", sherbrooke()), ("ankaa3", ankaa3())):
        records = compare_mappers([queko54, qasm18], backend)
        results[backend_name] = records
    return results


def test_fig2_motivating_comparison(benchmark):
    results = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    for backend_name, records in results.items():
        rows = [
            [r.circuit_name, r.mapper_name, r.swaps, r.depth_overhead, r.routed_depth]
            for r in records
        ]
        print_table(
            f"Figure 2 (reduced scale) - motivating comparison on {backend_name}",
            format_table(["circuit", "mapper", "swaps", "delta depth", "depth"], rows),
        )
        queko_records = [r for r in records if r.circuit_name.startswith("queko")]
        qlosure_swaps = next(r.swaps for r in queko_records if r.mapper_name == "qlosure")
        best_baseline = min(
            r.swaps for r in queko_records if r.mapper_name != "qlosure"
        )
        assert qlosure_swaps <= best_baseline * 1.05, (
            f"Qlosure should insert the fewest SWAPs on the QUEKO circuit "
            f"({qlosure_swaps} vs best baseline {best_baseline} on {backend_name})"
        )
