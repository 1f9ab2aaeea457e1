"""Comparison experiments: run every mapper on every circuit and aggregate.

These are the drivers behind the paper's Tables II-VI and Figures 6-7.  The
raw unit of data is a :class:`ComparisonRecord` (one mapper on one circuit on
one backend); aggregation helpers turn lists of records into the statistics
each table reports (average depth factor, average SWAP ratio, average mapping
time, per-circuit rows, per-initial-depth series).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api import CompileRequest, CompileResult, compile_many
from repro.benchgen.queko import QuekoCircuit
from repro.circuit.circuit import QuantumCircuit
from repro.hardware.coupling import CouplingGraph


@dataclass
class ComparisonRecord:
    """One (circuit, backend, mapper) measurement."""

    circuit_name: str
    backend_name: str
    mapper_name: str
    num_qubits: int
    qops: int
    two_qubit_gates: int
    initial_depth: int
    optimal_depth: int | None
    swaps: int
    routed_depth: int
    runtime_seconds: float
    cost_evaluations: int = 0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_compile_result(
        cls, result: CompileResult, optimal_depth: int | None = None
    ) -> "ComparisonRecord":
        """Build a record from a :func:`repro.api.compile` outcome."""
        metrics = result.metrics
        return cls(
            circuit_name=result.circuit_name,
            backend_name=result.backend_name,
            mapper_name=result.router,
            num_qubits=metrics["num_qubits"],
            qops=metrics["qops"],
            two_qubit_gates=metrics["two_qubit_gates"],
            initial_depth=metrics["initial_depth"],
            optimal_depth=optimal_depth,
            swaps=metrics["swaps"],
            routed_depth=metrics["routed_depth"],
            runtime_seconds=result.route_seconds,
            cost_evaluations=metrics["cost_evaluations"],
        )

    @property
    def depth_factor(self) -> float:
        """Routed depth over the reference depth (optimal when known, else initial)."""
        reference = self.optimal_depth or self.initial_depth
        return self.routed_depth / max(reference, 1)

    @property
    def depth_overhead(self) -> int:
        """Routed depth minus the initial depth (the Delta of Fig. 2)."""
        return self.routed_depth - self.initial_depth

    def as_dict(self) -> dict:
        """Flat dictionary form (for CSV-style dumping)."""
        return {
            "circuit": self.circuit_name,
            "backend": self.backend_name,
            "mapper": self.mapper_name,
            "qubits": self.num_qubits,
            "qops": self.qops,
            "two_qubit_gates": self.two_qubit_gates,
            "initial_depth": self.initial_depth,
            "optimal_depth": self.optimal_depth,
            "swaps": self.swaps,
            "routed_depth": self.routed_depth,
            "depth_factor": round(self.depth_factor, 4),
            "runtime_seconds": round(self.runtime_seconds, 4),
        }


#: Default evaluation set: the four paper baselines plus Qlosure.
DEFAULT_COMPARISON_ROUTERS = ("lightsabre", "qmap", "cirq", "tket", "qlosure")


def compare_mappers(
    circuits: Iterable[QuantumCircuit | QuekoCircuit],
    backend: CouplingGraph,
    mapper_names: Sequence[str] | None = None,
    workers: int = 1,
) -> list[ComparisonRecord]:
    """Run a set of registered routers over a set of circuits on one backend.

    ``circuits`` may mix plain circuits and :class:`QuekoCircuit` instances;
    for the latter, the known optimal depth is recorded so depth factors are
    relative to the optimum as in the paper's Table II.

    Every (circuit, router) pair is one :class:`~repro.api.CompileRequest`
    through :func:`repro.api.compile_many` (cache-aware, optionally fanned
    out across ``workers`` processes).  ``mapper_names`` are registry names
    or aliases and default to :data:`DEFAULT_COMPARISON_ROUTERS`; records
    come back circuit-major, routers in the given order.
    """
    names = tuple(mapper_names) if mapper_names is not None else DEFAULT_COMPARISON_ROUTERS
    unpacked = [_unpack_circuit(item) for item in circuits]
    requests = [
        CompileRequest(circuit=circuit, backend=backend, router=router, label=name)
        for circuit, _, name in unpacked
        for router in names
    ]
    batch = compile_many(requests, workers=workers)
    optima = (optimal for _, optimal, _ in unpacked for _ in names)
    return [
        ComparisonRecord.from_compile_result(result, optimal)
        for optimal, result in zip(optima, batch)
    ]


def _unpack_circuit(item: QuantumCircuit | QuekoCircuit):
    if isinstance(item, QuekoCircuit):
        return item.circuit, item.optimal_depth, item.name
    return item, None, item.name


# ---------------------------------------------------------------------------
# Aggregations for the paper's tables
# ---------------------------------------------------------------------------


def _size_class(record: ComparisonRecord, split_depth: int) -> str:
    reference = record.optimal_depth or record.initial_depth
    return "medium" if reference <= split_depth else "large"


def depth_factor_table(
    records: Iterable[ComparisonRecord], split_depth: int = 500
) -> dict[str, dict[str, float]]:
    """Table II: average depth factor per mapper and size class (lower is better)."""
    grouped: dict[str, dict[str, list[float]]] = {}
    for record in records:
        size_class = _size_class(record, split_depth)
        grouped.setdefault(record.mapper_name, {}).setdefault(size_class, []).append(
            record.depth_factor
        )
    return {
        mapper: {size: round(statistics.mean(values), 2) for size, values in classes.items()}
        for mapper, classes in grouped.items()
    }


def swap_ratio_table(
    records: Iterable[ComparisonRecord],
    reference_mapper: str = "qlosure",
    split_depth: int = 500,
) -> dict[str, dict[str, float]]:
    """Table III: average SWAP ratio of every mapper relative to Qlosure (>1 favours Qlosure)."""
    records = list(records)
    reference: dict[tuple[str, str], int] = {
        (r.circuit_name, r.backend_name): r.swaps
        for r in records
        if r.mapper_name == reference_mapper
    }
    grouped: dict[str, dict[str, list[float]]] = {}
    for record in records:
        if record.mapper_name == reference_mapper:
            continue
        key = (record.circuit_name, record.backend_name)
        if key not in reference:
            continue
        baseline_swaps = record.swaps
        reference_swaps = max(reference[key], 1)
        size_class = _size_class(record, split_depth)
        grouped.setdefault(record.mapper_name, {}).setdefault(size_class, []).append(
            baseline_swaps / reference_swaps
        )
    return {
        mapper: {size: round(statistics.mean(values), 2) for size, values in classes.items()}
        for mapper, classes in grouped.items()
    }


def mapping_time_table(
    records: Iterable[ComparisonRecord], split_depth: int = 500
) -> dict[str, dict[str, float]]:
    """Table IV: average mapping time (seconds) per mapper and size class."""
    grouped: dict[str, dict[str, list[float]]] = {}
    for record in records:
        size_class = _size_class(record, split_depth)
        grouped.setdefault(record.mapper_name, {}).setdefault(size_class, []).append(
            record.runtime_seconds
        )
    return {
        mapper: {size: round(statistics.mean(values), 3) for size, values in classes.items()}
        for mapper, classes in grouped.items()
    }


def qasmbench_table(
    records: Iterable[ComparisonRecord], reference_mapper: str = "qlosure"
) -> dict:
    """Tables V-VI: per-circuit swaps/depth per mapper plus average improvements.

    Returns ``{"rows": {circuit: {mapper: {"swaps": .., "depth": ..}}},
    "improvement": {mapper: {"swaps": pct, "depth": pct}}}`` where the
    improvement is (baseline - qlosure) / baseline averaged over circuits, as
    in the last row of the paper's tables.
    """
    rows: dict[str, dict[str, dict[str, int]]] = {}
    for record in records:
        rows.setdefault(record.circuit_name, {})[record.mapper_name] = {
            "swaps": record.swaps,
            "depth": record.routed_depth,
            "qubits": record.num_qubits,
            "qops": record.qops,
        }
    improvements: dict[str, dict[str, list[float]]] = {}
    for circuit_name, per_mapper in rows.items():
        if reference_mapper not in per_mapper:
            continue
        reference = per_mapper[reference_mapper]
        for mapper_name, values in per_mapper.items():
            if mapper_name == reference_mapper:
                continue
            bucket = improvements.setdefault(mapper_name, {"swaps": [], "depth": []})
            if values["swaps"] > 0:
                bucket["swaps"].append(
                    (values["swaps"] - reference["swaps"]) / values["swaps"]
                )
            if values["depth"] > 0:
                bucket["depth"].append(
                    (values["depth"] - reference["depth"]) / values["depth"]
                )
    improvement = {
        mapper: {
            metric: round(100.0 * statistics.mean(values), 2) if values else 0.0
            for metric, values in metrics.items()
        }
        for mapper, metrics in improvements.items()
    }
    return {"rows": rows, "improvement": improvement}


def queko_series(
    records: Iterable[ComparisonRecord],
) -> dict[str, dict[int, dict[str, float]]]:
    """Figures 6-7: per-mapper series of average swaps and depth vs initial (optimal) depth."""
    grouped: dict[str, dict[int, list[ComparisonRecord]]] = {}
    for record in records:
        reference = record.optimal_depth or record.initial_depth
        grouped.setdefault(record.mapper_name, {}).setdefault(reference, []).append(record)
    series: dict[str, dict[int, dict[str, float]]] = {}
    for mapper, by_depth in grouped.items():
        series[mapper] = {}
        for depth, items in sorted(by_depth.items()):
            series[mapper][depth] = {
                "swaps": round(statistics.mean(r.swaps for r in items), 2),
                "depth": round(statistics.mean(r.routed_depth for r in items), 2),
            }
    return series
