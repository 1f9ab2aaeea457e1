"""Shared QUEKO comparison runs used by the Table II/III/IV and Fig. 6/7 benchmarks.

The paper derives Tables II-IV and Figures 6-7 from one underlying experiment
(every mapper on every QUEKO circuit on every backend); this module runs that
experiment once per backend and caches the records so each benchmark file
aggregates the same data the paper's corresponding artifact reports.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.config import bench_scale
from repro.analysis.experiments import compare_mappers
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.backends import ankaa3, sherbrooke, sherbrooke_2x
from repro.hardware.backends import grid_16x16
from repro.hardware.topologies import grid_topology

#: Reduced-scale stand-in for the paper's 100..900 QUEKO-BSS depth ladder.
BASE_DEPTHS = (5, 10, 15, 20)
#: Reduced ladder for the 256-qubit synthetic backend (paper: same ladder, 24h timeouts).
BASE_DEPTHS_2X = (3, 6)


def _mappers(include_qmap: bool = True) -> tuple[str, ...]:
    """Registry names of the compared routers, in the order their rows print."""
    names = ("lightsabre", "cirq", "tket", "qlosure")
    return names + ("qmap",) if include_qmap else names


def _queko_instances(generation_device, depths, seeds, prefix):
    instances = []
    for depth in depths:
        for index in range(seeds):
            instances.append(
                generate_queko_circuit(
                    generation_device,
                    depth,
                    seed=depth * 37 + index,
                    name=f"{prefix}-d{depth}-{index}",
                )
            )
    return instances


def scaled_depths(base=BASE_DEPTHS):
    """The QUEKO depth ladder at the configured benchmark scale."""
    return bench_scale().queko_depths(base)


def split_depth(depths) -> int:
    """Boundary between the 'Medium' and 'Large' size classes for a depth ladder."""
    ordered = sorted(depths)
    return ordered[len(ordered) // 2 - 1] if len(ordered) > 1 else ordered[0]


@lru_cache(maxsize=None)
def queko_records(backend_name: str):
    """All (mapper, circuit) records for one backend's QUEKO comparison."""
    scale = bench_scale()
    if backend_name == "sherbrooke":
        backend = sherbrooke()
        generation = grid_topology(6, 9, name="sycamore-54-grid")
        depths = scaled_depths()
        include_qmap = True
    elif backend_name == "ankaa3":
        backend = ankaa3()
        generation = grid_topology(6, 9, name="sycamore-54-grid")
        depths = scaled_depths()
        include_qmap = True
    elif backend_name == "sherbrooke-2x":
        backend = sherbrooke_2x()
        generation = grid_16x16()
        depths = bench_scale().queko_depths(BASE_DEPTHS_2X)
        # QMAP timed out on Sherbrooke-2X in the paper; it is also excluded here.
        include_qmap = False
    else:
        raise KeyError(f"unknown benchmark backend {backend_name!r}")
    circuits = _queko_instances(
        generation, depths, max(1, scale.seeds if backend_name != "sherbrooke-2x" else 1),
        prefix=f"queko-{backend_name}",
    )
    return compare_mappers(circuits, backend, _mappers(include_qmap)), depths
