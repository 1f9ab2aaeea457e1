"""Ablation study of the cost-function components (Figure 8 of the paper).

Four variants are compared on QUEKO circuits:

a) ``distance-only`` -- geometric distance on the front layer only,
b) ``layer-adjusted`` -- adds the layered look-ahead with 1/l discounts,
c) ``dependency-weighted`` -- adds the transitive dependence weights (the
   full Qlosure cost), and
d) ``bidirectional`` -- the full cost plus a forward/backward initial-layout
   pass.

Results are reported relative to the distance-only baseline, as in the paper
("x% fewer SWAPs / smaller depth").
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.api import CompileRequest, compile as api_compile
from repro.benchgen.queko import QuekoCircuit
from repro.circuit.circuit import QuantumCircuit
from repro.core.config import QlosureConfig
from repro.hardware.coupling import CouplingGraph


ABLATION_VARIANTS: tuple[str, ...] = (
    "distance-only",
    "layer-adjusted",
    "dependency-weighted",
    "bidirectional",
)


def variant_request(
    variant: str, backend: CouplingGraph, circuit: QuantumCircuit
) -> CompileRequest:
    """The :func:`repro.api.compile` request realising one ablation variant."""
    if variant == "distance-only":
        config, placement, options = QlosureConfig.distance_only(), "identity", {}
    elif variant == "layer-adjusted":
        config, placement, options = QlosureConfig.layer_adjusted(), "identity", {}
    elif variant == "dependency-weighted":
        config, placement, options = QlosureConfig.dependency_weighted(), "identity", {}
    elif variant == "bidirectional":
        config = QlosureConfig.dependency_weighted()
        placement, options = "bidirectional", {"passes": 1}
    else:
        raise KeyError(
            f"unknown ablation variant {variant!r}; choose from {ABLATION_VARIANTS}"
        )
    return CompileRequest(
        circuit=circuit,
        backend=backend,
        router="qlosure",
        router_config=config,
        placement=placement,
        placement_options=options,
    )


@dataclass
class AblationResult:
    """Aggregated ablation outcome."""

    backend_name: str
    per_variant: dict[str, dict[str, float]] = field(default_factory=dict)
    relative_to_baseline: dict[str, dict[str, float]] = field(default_factory=dict)
    per_circuit: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)

    def improvement(self, variant: str, metric: str) -> float:
        """Percentage improvement of ``variant`` over distance-only for ``metric``."""
        return self.relative_to_baseline.get(variant, {}).get(metric, 0.0)


def ablation_study(
    circuits: list[QuekoCircuit],
    backend: CouplingGraph,
    variants: tuple[str, ...] = ABLATION_VARIANTS,
    baseline_variant: str = "distance-only",
) -> AblationResult:
    """Run every ablation variant on every circuit and aggregate the results."""
    result = AblationResult(backend_name=backend.name)
    raw: dict[str, list[tuple[int, int]]] = {variant: [] for variant in variants}
    for variant in variants:
        for instance in circuits:
            mapped = api_compile(variant_request(variant, backend, instance.circuit))
            raw[variant].append((mapped.swaps_added, mapped.metrics["routed_depth"]))
            result.per_circuit.setdefault(instance.name, {})[variant] = {
                "swaps": mapped.swaps_added,
                "depth": mapped.metrics["routed_depth"],
            }
    for variant, values in raw.items():
        result.per_variant[variant] = {
            "swaps": round(statistics.mean(v[0] for v in values), 2),
            "depth": round(statistics.mean(v[1] for v in values), 2),
        }
    baseline = result.per_variant.get(baseline_variant)
    if baseline:
        for variant, values in result.per_variant.items():
            result.relative_to_baseline[variant] = {
                "swaps": round(
                    100.0 * (baseline["swaps"] - values["swaps"]) / max(baseline["swaps"], 1e-9),
                    2,
                ),
                "depth": round(
                    100.0 * (baseline["depth"] - values["depth"]) / max(baseline["depth"], 1e-9),
                    2,
                ),
            }
    return result
