"""Sensitivity studies of Qlosure's design choices.

DESIGN.md calls out two tunables whose values the paper fixes by construction
rather than by sweeping: the look-ahead window constant ``c`` (set to exceed
the device's maximum degree) and the decay increment (0.001, inherited from
SABRE).  These helpers sweep each knob over a range and report the resulting
SWAP counts / depths so the choices can be validated empirically (the
``benchmarks/test_ablation_window_size.py`` bench uses them).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.api import CompileRequest, compile as api_compile
from repro.benchgen.queko import QuekoCircuit
from repro.circuit.circuit import QuantumCircuit
from repro.core.config import QlosureConfig
from repro.hardware.coupling import CouplingGraph


@dataclass
class SweepResult:
    """Aggregated quality metrics for one parameter value."""

    parameter: str
    value: float
    mean_swaps: float
    mean_depth: float
    mean_runtime: float
    per_circuit: dict[str, dict[str, float]] = field(default_factory=dict)


def _circuit_of(item: QuantumCircuit | QuekoCircuit) -> tuple[QuantumCircuit, str]:
    if isinstance(item, QuekoCircuit):
        return item.circuit, item.name
    return item, item.name


def _run_config(
    circuits, backend: CouplingGraph, config: QlosureConfig, parameter: str, value: float
) -> SweepResult:
    swaps, depths, runtimes = [], [], []
    per_circuit: dict[str, dict[str, float]] = {}
    for item in circuits:
        circuit, name = _circuit_of(item)
        result = api_compile(
            CompileRequest(
                circuit=circuit, backend=backend, router="qlosure", router_config=config
            )
        )
        swaps.append(result.swaps_added)
        depths.append(result.metrics["routed_depth"])
        runtimes.append(result.route_seconds)
        per_circuit[name] = {
            "swaps": result.swaps_added,
            "depth": result.metrics["routed_depth"],
            "runtime": round(result.route_seconds, 4),
        }
    return SweepResult(
        parameter=parameter,
        value=value,
        mean_swaps=round(statistics.mean(swaps), 2),
        mean_depth=round(statistics.mean(depths), 2),
        mean_runtime=round(statistics.mean(runtimes), 4),
        per_circuit=per_circuit,
    )


def window_constant_sweep(
    circuits,
    backend: CouplingGraph,
    constants: list[int] | None = None,
    base_config: QlosureConfig | None = None,
) -> list[SweepResult]:
    """Sweep the look-ahead window constant ``c`` (``k = c * n_f``).

    The paper picks ``c`` just above the device's maximum degree; the sweep
    shows how quality and runtime react to narrower and wider windows
    (``c = 1`` approaches the distance-only behaviour, very large ``c``
    approaches whole-circuit look-ahead).
    """
    base_config = base_config or QlosureConfig()
    if constants is None:
        max_degree = backend.max_degree()
        constants = sorted({1, 2, max_degree, max_degree + 1, 2 * (max_degree + 1)})
    results = []
    for constant in constants:
        config = QlosureConfig.full(
            lookahead_constant=constant, seed=base_config.seed
        )
        results.append(_run_config(circuits, backend, config, "lookahead_constant", constant))
    return results


def decay_increment_sweep(
    circuits,
    backend: CouplingGraph,
    increments: list[float] | None = None,
) -> list[SweepResult]:
    """Sweep the decay increment (the paper uses SABRE's 0.001)."""
    increments = increments or [0.0, 0.001, 0.01, 0.1]
    results = []
    for increment in increments:
        config = QlosureConfig.full(
            decay_increment=increment, use_decay=increment > 0.0
        )
        results.append(_run_config(circuits, backend, config, "decay_increment", increment))
    return results


def best_value(results: list[SweepResult], metric: str = "mean_swaps") -> SweepResult:
    """The sweep point with the best (lowest) value of ``metric``."""
    return min(results, key=lambda r: getattr(r, metric))
