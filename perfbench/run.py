"""Layered benchmark of the qubit-mapping compiler and its served path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload route-256 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
measures untraced passes for half the time, then traced passes for the other
half, writes one trace file with ``repro.obs.write_trace`` and computes the
per-layer metrics from that file (see ``layers.py``).  The last line of
standard output is the result object; the line before it is the full record
(context, sample counts, tail percentiles, latency accounting).  The exit code is 0
only when every output check passed.  See ``README.md`` in this directory for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
#: A run stops early, with the passes it has, once this many times
#: ``--seconds`` of wall time are gone (a very slow host must still finish).
LIMIT_FACTOR = 3
#: Set-ups per run.  ``setup_s`` is the fastest scaled set-up plus the
#: fastest scaled import: other tenants of a shared machine only ever add time.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("route-256", "batch-54", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one small circuit per workload (self-test)")
    parser.add_argument("--trace-out", type=Path, help="keep the traced run's trace file here")
    parser.add_argument("--record", type=Path, help="also write the full record to this file")
    return parser.parse_args(argv)


def end_to_end(phase, setup_s: float, rss: float, workload) -> tuple[dict, dict]:
    cold = phase.latencies("cold")
    hit = phase.latencies("hit")
    raw = {kind: [s.seconds for s in phase.samples if s.kind == kind and s.ok] for kind in ("cold", "hit")}
    cold_tail, hit_tail = harness.tail(cold), harness.tail(hit)
    swaps, depth = workload.quality()
    values = {
        "setup_s": setup_s,
        "cold_p50_ms": 1000.0 * harness.median(cold),
        "cold_tail_ms": 1000.0 * cold_tail["value"],
        "hit_p50_ms": 1000.0 * harness.median(hit),
        "hit_tail_ms": 1000.0 * hit_tail["value"],
        "throughput_rps": phase.throughput(),
        "cpu_s": phase.cpu(),
        "peak_rss_mib": rss,
        "swaps_sum": swaps,
        "depth_sum": depth,
    }
    details = {
        "passes": len(phase.passes),
        "pass_wall_s": {"scaled": phase.scaled_pass_wall(), "unscaled": phase.pass_wall},
        "pass_cpu_s": {"scaled": phase.scaled_pass_cpu(), "unscaled": phase.pass_cpu},
        "unscaled_p50_ms": {kind: 1000.0 * harness.median(values) for kind, values in raw.items()},
        "cold_p50_ms": {"samples": len(cold)},
        "hit_p50_ms": {"samples": len(hit)},
        "cold_tail_ms": {key: cold_tail[key] for key in ("percentile", "samples", "beyond")},
        "hit_tail_ms": {key: hit_tail[key] for key in ("percentile", "samples", "beyond")},
        "swaps_sum": {"distinct_requests": len(workload.outputs)},
        "latencies_ms": [
            {kind: [1000.0 * s.seconds for s in samples if s.kind == kind] for kind in ("cold", "hit")}
            for samples in phase.passes
        ],
    }
    return values, details


def traced_run(workload, passes: int, limit_s: float, clock, work: Path, trace_out) -> tuple[dict, dict]:
    """Untraced passes, then traced ones; per-layer metrics from the written trace."""
    import layers
    from repro.obs import Tracer, read_trace, summarize, write_trace

    half = max(1, passes // 2)
    baseline = harness.measure(lambda: workload.run_pass(layers.UNTRACED), half, clock, limit_s / 2)
    recorder = layers.Recorder(Tracer())
    exec_trace = work / "serve-exec.trace.jsonl"
    workload.start_recording(exec_trace)
    with recorder.installed():
        traced = harness.measure(lambda: workload.run_pass(recorder), half, clock, limit_s / 2)
    spans, counters = workload.stop_recording(exec_trace)
    recorder.tracer.extend(spans, counters)
    for name, value in workload.layer_counters().items():
        recorder.tracer.count(name, value)
    layers.link_served(recorder.tracer.spans)

    path = trace_out or work / "run.trace.jsonl"
    write_trace(path, recorder.tracer, meta={"tool": "perfbench", "workload": workload.name})
    _, spans, counters = read_trace(path)
    metrics = layers.layer_metrics(spans, counters)
    metrics["trace_overhead"] = traced.cpu() / baseline.cpu() - 1.0
    disagreements = layers.summary_disagreements(metrics, summarize(spans, counters))
    workload.problems.extend(f"trace summarize: {line}" for line in disagreements)
    details = {
        "trace_file": str(path),
        "spans": len(spans),
        "summarize_checked": sorted(layers.summary_rows()),
        "summarize_disagreements": disagreements,
        "accounting": layers.accounting(layers.SpanTree(spans)),
        "untraced_median_latency_ms": 1000.0 * harness.median([s.seconds for s in baseline.samples]),
        "traced_median_latency_ms": 1000.0 * harness.median([s.seconds for s in traced.samples]),
        "scaled_cpu_per_pass_s": {
            "untraced": baseline.scaled_pass_cpu(),
            "traced": traced.scaled_pass_cpu(),
        },
        "counters": counters,
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import UNTRACED
    from workloads import WORKLOADS

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    clock = harness.HostClock()
    workload = WORKLOADS[args.workload](work, args.seed, args.tiny, args.trace == 1, clock)
    try:
        import_times = [harness.import_seconds(ROOT, clock) for _ in range(SETUP_REPEATS)]
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            clock.tick()
            spent = clock.spent_wall
            start = time.perf_counter()
            workload.setup()
            end = time.perf_counter()
            ticking = clock.spent_wall - spent
            clock.tick()
            setup_times.append((end - start - ticking) * clock.wall_factor(start, end))
        setup_s = min(import_times) + min(setup_times)

        passes = max(1, round(args.seconds / workload.pass_seconds))
        limit_s = LIMIT_FACTOR * args.seconds
        if args.trace == 0:
            phase = harness.measure(lambda: workload.run_pass(UNTRACED), passes, clock, limit_s)
            rss = harness.peak_rss_mib()
            workload.teardown()
            workload.check()
            metrics, details = end_to_end(phase, setup_s, rss, workload)
            table = harness.END_TO_END
        else:
            metrics, details = traced_run(workload, passes, limit_s, clock, work, args.trace_out)
            workload.teardown()
            workload.check()
            table = harness.PER_LAYER
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    record = {
        "context": harness.context(ROOT, args),
        "workload": {"name": workload.name, **workload.describe()},
        "host_speed": clock.summary(),
        "setup": {"scaled_import_s": import_times, "scaled_setup_s": setup_times},
        "details": details,
        "problems": workload.problems,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
    }
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name in table:
        print(f"{workload.name:10s} {name:40s} {metrics[name]:16.6f} {table[name][0]}")
    for problem in workload.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(record, sort_keys=True))
    attempted = max(1, workload.attempted)
    result = {
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": min(len(workload.problems), attempted),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
