"""Unified telemetry primitives: counters and fixed-bucket histograms.

``repro.serve`` registers its service counters and latency histograms on a
:class:`MetricsRegistry`.  Trace files do not go through it: the exporters
in :mod:`repro.obs.export` write a tracer's own counters.

Two renderings of the same registry:

* :meth:`MetricsRegistry.snapshot` -- the JSON body of ``GET /metrics``
  (per-bucket counts, directly plottable), and
* :meth:`MetricsRegistry.prometheus` -- Prometheus text exposition
  (``GET /metrics?format=prometheus``): cumulative ``le``-labelled buckets,
  ``_sum``/``_count`` series, ``# TYPE`` comments, sanitised metric names.

There are no locks.  The service writes its counters and its ``queue_wait``
and ``total`` histograms on its event-loop thread, but the per-pass
``pass_*`` histograms from executor threads (``_run_compile`` and
``_run_batch`` in :mod:`repro.serve.server`), so with ``workers > 1`` two
threads can observe into one histogram at once.
"""

from __future__ import annotations

import re

__all__ = [
    "DEFAULT_BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "prometheus_name",
]

#: Default histogram bucket upper bounds in seconds.  Spans the observed
#: per-pass range of the pinned workloads (sub-millisecond loads up to
#: multi-second qmap routes); everything slower lands in the overflow bucket.
DEFAULT_BUCKET_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Sanitise a registry name into a legal Prometheus metric name."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return prefix + cleaned


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Histogram:
    """A fixed-bucket latency histogram (seconds).

    Cumulative-style rendering is deliberately avoided in :meth:`snapshot`:
    each bucket reports only its own count, so the JSON payload is directly
    plottable without de-accumulation.  (:meth:`MetricsRegistry.prometheus`
    re-accumulates for the ``le`` convention.)
    """

    def __init__(self, bounds=DEFAULT_BUCKET_BOUNDS):
        self.bounds = tuple(float(b) for b in bounds)
        if any(b <= 0 for b in self.bounds) or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be positive and ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # + overflow bucket
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)
        for index, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> dict:
        buckets = {f"<={bound:g}": count for bound, count in zip(self.bounds, self.counts)}
        buckets[f">{self.bounds[-1]:g}"] = self.counts[-1]
        return {
            "count": self.count,
            "sum_seconds": round(self.total, 6),
            "max_seconds": round(self.max, 6),
            "mean_seconds": round(self.total / self.count, 6) if self.count else 0.0,
            "buckets": buckets,
        }

    def cumulative_buckets(self) -> list[tuple[str, int]]:
        """``(upper bound label, cumulative count)`` pairs, ``+Inf`` last."""
        out: list[tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((f"{bound:g}", running))
        out.append(("+Inf", running + self.counts[-1]))
        return out


class MetricsRegistry:
    """A flat registry of named counters and histograms."""

    def __init__(self):
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def observe(self, name: str, seconds: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(seconds)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def _merged_counters(self, extra_counters: dict | None) -> dict[str, int]:
        counters = dict(self._counters)
        for name, value in (extra_counters or {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        return counters

    def snapshot(self, gauges: dict | None = None, extra_counters: dict | None = None) -> dict:
        """Render everything JSON-safe.  ``extra_counters`` lets the caller
        merge counters owned by another subsystem (the shared cache's
        eviction totals) into the same flat namespace scrapers watch."""
        return {
            "counters": dict(sorted(self._merged_counters(extra_counters).items())),
            "gauges": dict(gauges or {}),
            "latency_seconds": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def prometheus(self, gauges: dict | None = None, extra_counters: dict | None = None) -> str:
        """Prometheus text exposition format (version 0.0.4) of the registry.

        Counter samples get a ``_total`` suffix per convention; histograms
        render cumulative ``le`` buckets plus ``_sum``/``_count``; gauges are
        snapshot values supplied by the caller.  The returned text ends with
        a newline, as the format requires.
        """
        lines: list[str] = []
        for name, value in sorted(self._merged_counters(extra_counters).items()):
            metric = prometheus_name(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(int(value))}")
        for name, value in sorted((gauges or {}).items()):
            metric = prometheus_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(value)}")
        for name, histogram in sorted(self._histograms.items()):
            metric = prometheus_name(name) + "_seconds"
            lines.append(f"# TYPE {metric} histogram")
            for label, cumulative in histogram.cumulative_buckets():
                lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
            lines.append(f"{metric}_sum {_format_value(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"
