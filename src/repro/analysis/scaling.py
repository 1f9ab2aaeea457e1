"""Mapping-time scaling data (Figure 5 of the paper).

The paper shows that Qlosure's mapping time grows near-linearly with the
number of quantum operations (QOPs).  :func:`mapping_time_scaling` measures
the route-pass time of a registered router over a ladder of circuit sizes
and fits a simple least-squares line whose quality (R^2) quantifies
"near-linear".
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.api import CompileRequest, compile as api_compile, resolve_router
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.coupling import CouplingGraph

#: Uncached compiles per point.  A point's time is the fastest of them:
#: other tenants of a shared host only ever add time.
COMPILES_PER_POINT = 3


@dataclass
class ScalingPoint:
    """One (QOPs, mapping time) measurement."""

    qops: int
    seconds: float
    depth: int
    swaps: int


@dataclass
class ScalingResult:
    """The measured scaling series plus its linear fit."""

    backend_name: str
    mapper_name: str
    points: list[ScalingPoint]
    slope: float
    intercept: float
    r_squared: float

    def as_dict(self) -> dict:
        """Flat dictionary form for reports."""
        return {
            "backend": self.backend_name,
            "mapper": self.mapper_name,
            "points": [(p.qops, round(p.seconds, 4)) for p in self.points],
            "slope_seconds_per_qop": self.slope,
            "r_squared": round(self.r_squared, 4),
        }


def _linear_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, intercept, r_squared


def mapping_time_scaling(
    backend: CouplingGraph,
    generation_device: CouplingGraph,
    depths: list[int],
    router: str = "qlosure",
    seed: int = 0,
) -> ScalingResult:
    """Measure route-pass time versus QOPs on QUEKO circuits of increasing depth.

    Every point is :data:`COMPILES_PER_POINT` uncached
    :func:`repro.api.compile` calls of ``router`` (a registry name or alias),
    one per sweep of the ladder; its time is the fastest of their route
    passes (``CompileResult.route_seconds``, the span ``repro-map bench``
    reports).
    """
    requests = [
        CompileRequest(
            circuit=generate_queko_circuit(
                generation_device, depth, seed=seed * 9973 + index
            ).circuit,
            backend=backend,
            router=router,
        )
        for index, depth in enumerate(sorted(depths))
    ]
    seconds: list[list[float]] = [[] for _ in requests]
    for _ in range(COMPILES_PER_POINT):
        # Each round sweeps the whole ladder, so a slow stretch of the host
        # costs a point at most one of its samples.
        results = []
        for request, times in zip(requests, seconds):
            # Pause the cyclic collector as timeit does: one full collection
            # of a large host process (tens of ms in a test run) landing
            # inside a single point would skew the fit.
            collecting = gc.isenabled()
            gc.disable()
            try:
                result = api_compile(request, cache=False)
            finally:
                if collecting:
                    gc.enable()
            results.append(result)
            times.append(result.route_seconds)
    points = [
        ScalingPoint(
            qops=result.metrics["qops"],
            seconds=min(times),
            depth=result.metrics["routed_depth"],
            swaps=result.swaps_added,
        )
        for result, times in zip(results, seconds)
    ]
    slope, intercept, r_squared = _linear_fit(
        [float(p.qops) for p in points], [p.seconds for p in points]
    )
    return ScalingResult(
        backend_name=backend.name,
        mapper_name=resolve_router(router).name,
        points=points,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
    )
