"""Benchmark scale configuration.

The paper runs circuits with initial depths up to 900 and up to ~16k gates on
a large Xeon with 24-hour timeouts per mapper.  The default scale of this
reproduction is reduced so that the full benchmark suite finishes in minutes
of pure Python; the environment variables below scale the workloads back up
towards paper-sized instances:

* ``REPRO_BENCH_SCALE`` -- float multiplier on circuit depths / sizes
  (default 1.0; the paper-equivalent scale is roughly 10).
* ``REPRO_BENCH_SEEDS`` -- number of circuits per configuration (default 2;
  the paper uses 10 per depth).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class BenchScale:
    """Resolved benchmark scale parameters."""

    scale: float
    seeds: int

    def queko_depths(self, base: tuple[int, ...] = (20, 40, 60, 80, 100)) -> list[int]:
        """The QUEKO depth ladder at the current scale (paper ladder: 100..900)."""
        return [max(4, int(round(depth * self.scale))) for depth in base]


def bench_scale() -> BenchScale:
    """Read the benchmark scale from the environment."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    seeds = int(os.environ.get("REPRO_BENCH_SEEDS", "2"))
    if scale <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    if seeds < 1:
        raise ValueError("REPRO_BENCH_SEEDS must be at least 1")
    return BenchScale(scale=scale, seeds=seeds)
