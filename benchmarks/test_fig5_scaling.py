"""Figure 5: Qlosure mapping time as a function of quantum operations (QOPs).

The paper shows near-linear growth of Qlosure's mapping time with the QOP
count of QUEKO 54-qubit circuits on all three back-ends.  The benchmark
measures the same series at reduced scale, timing each point as the fastest
route pass of three uncached :func:`repro.api.compile` calls (one per sweep
of the ladder), and asserts the linear fit explains most of the variance
(R^2 >= 0.8).
"""

from __future__ import annotations

from repro.analysis.config import bench_scale
from repro.analysis.scaling import mapping_time_scaling
from repro.hardware.backends import ankaa3, sherbrooke
from repro.hardware.topologies import grid_topology

from benchmarks.conftest import print_table


def _regenerate():
    scale = bench_scale()
    depths = scale.queko_depths((4, 8, 12, 16, 20))
    generation = grid_topology(6, 9, name="sycamore-54-grid")
    return {
        "sherbrooke": mapping_time_scaling(sherbrooke(), generation, depths, seed=1),
        "ankaa3": mapping_time_scaling(ankaa3(), generation, depths, seed=1),
    }


def test_fig5_mapping_time_scaling(benchmark):
    results = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    for backend, result in results.items():
        rows = "\n".join(
            f"  QOPs={point.qops:6d}  time={point.seconds:7.3f}s  swaps={point.swaps}"
            for point in result.points
        )
        print_table(
            f"Figure 5 (reduced scale) - Qlosure mapping time vs QOPs on {backend}",
            rows + f"\n  linear fit R^2 = {result.r_squared:.3f}",
        )
        times = [point.seconds for point in result.points]
        assert times[-1] >= times[0], "mapping time should grow with circuit size"
        assert result.r_squared >= 0.8, (
            f"mapping time on {backend} should grow near-linearly with QOPs "
            f"(R^2 = {result.r_squared:.3f})"
        )
