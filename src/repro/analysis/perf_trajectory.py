"""Machine-readable routing performance trajectory.

Routes a fixed QUEKO workload with every evaluation router through the
:mod:`repro.api` batch driver and writes the per-router mean SWAP count,
routed depth, mapping time and cost-evaluation count to
``BENCH_routing.json``.  The fixture (generation device, depth ladder, seeds)
is pinned, so successive commits produce directly comparable numbers:
quality metrics (swaps/depth) must stay constant for a performance-only
change -- routing is bit-for-bit deterministic per request, independent of
``workers`` -- and ``mean_seconds`` is the mapping-time trajectory the
Table 4 benchmark summarises, while ``wall_seconds`` tracks harness
throughput (this is where ``workers > 1`` pays off).  Run it via
``make bench`` or ``repro-map bench``.
"""

from __future__ import annotations

import platform

from repro.api import CompileCache, CompileRequest, compile_many
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.backends import sherbrooke
from repro.hardware.topologies import grid_topology

#: Pinned fixture: depths and per-depth seeds of the QUEKO smoke workload.
FIXTURE_DEPTHS = (5, 10, 15)
FIXTURE_SEEDS_PER_DEPTH = 2
#: Reduced fixture for ``--quick`` CI smoke runs.
QUICK_DEPTHS = (5,)
QUICK_SEEDS_PER_DEPTH = 1

#: The routers tracked by the trajectory (paper baselines + Qlosure).
TRAJECTORY_ROUTERS = ("sabre", "lightsabre", "cirq", "tket", "qmap", "greedy", "qlosure")


def smoke_fixture(quick: bool = False):
    """The fixed QUEKO instances every perf-smoke run routes."""
    depths = QUICK_DEPTHS if quick else FIXTURE_DEPTHS
    seeds_per_depth = QUICK_SEEDS_PER_DEPTH if quick else FIXTURE_SEEDS_PER_DEPTH
    generation = grid_topology(6, 9, name="sycamore-54-grid")
    instances = []
    for depth in depths:
        for index in range(seeds_per_depth):
            instances.append(
                generate_queko_circuit(
                    generation,
                    depth,
                    seed=depth * 37 + index,
                    name=f"perf-smoke-d{depth}-{index}",
                )
            )
    return instances


def smoke_requests(
    backend=None, rounds: int = 1, quick: bool = False
) -> list[CompileRequest]:
    """The pinned request batch: every tracked router over every instance."""
    if backend is None:
        backend = sherbrooke()
    backend.distance_table()  # build once, shared by every request
    instances = smoke_fixture(quick=quick)
    return [
        CompileRequest(
            circuit=instance.circuit,
            backend=backend,
            router=router,
            seed=0,
            label=instance.name,
        )
        for router in TRAJECTORY_ROUTERS
        for _ in range(rounds)
        for instance in instances
    ]


def run_perf_smoke(
    rounds: int = 1,
    workers: int = 1,
    quick: bool = False,
    cache: CompileCache | None = None,
    timeout=None,
    retries: int = 0,
    faults=None,
) -> dict:
    """Route the pinned fixture with every router; return the trajectory record.

    ``cache`` is the store the batch consults, or ``None`` for none.
    ``repro-map bench`` passes one only for ``--cache-dir``: a *private*
    disk-backed :class:`~repro.api.cache.CompileCache`, so the process
    default cache is never polluted by benchmark traffic.  Requests within
    one run are all distinct, so a fresh in-memory cache could never hit
    and would only tax the measurement with serialization.  A re-run
    against the same directory answers from the store, replaying the pass
    timings recorded when the entries were written -- ``mean_seconds``
    stays a routing-time trajectory either way.  The ``cache`` section of
    the record is informational and is ignored by the
    :func:`quality_regressions` drift gate.

    Failures, by contrast, always gate: the batch runs under
    ``on_error="collect"`` and every failed request is recorded in the
    ``failures`` section -- :func:`quality_regressions` refuses a partially
    failed record outright, so a crashed or timed-out request can never
    slip through the ``--compare`` drift gate disguised as a healthy run.
    ``workers``/``timeout``/``retries``/``faults`` pass straight through to
    :func:`repro.api.compile_many`, which validates them (the ``faults``
    hook is how the fault-injection tests drive this code path end to end).
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    backend = sherbrooke()
    requests = smoke_requests(backend, rounds=rounds, quick=quick)
    batch = compile_many(
        requests,
        workers=workers,
        cache=cache,
        on_error="collect",
        timeout=timeout,
        retries=retries,
        faults=faults,
    )
    directory = getattr(cache, "directory", None)
    record: dict = {
        "benchmark": "routing-perf-smoke",
        "backend": backend.name,
        "fixture": {
            "generator": "queko",
            "generation_device": "sycamore-54-grid",
            "depths": list(QUICK_DEPTHS if quick else FIXTURE_DEPTHS),
            "seeds_per_depth": QUICK_SEEDS_PER_DEPTH if quick else FIXTURE_SEEDS_PER_DEPTH,
            "rounds": rounds,
            "quick": quick,
        },
        "python": platform.python_version(),
        "workers": batch.workers,
        "wall_seconds": round(batch.wall_seconds, 4),
        # Informational only -- quality_regressions must never gate on cache
        # behaviour (hit rates move without the routed bits changing).
        "cache": {
            "enabled": cache is not None,
            "dir": str(directory) if directory is not None else None,
            "hits": batch.cache_hits,
            "misses": batch.cache_misses,
            "max_bytes": getattr(cache, "max_bytes", None),
            "max_entries": getattr(cache, "max_entries", None),
            "readonly": getattr(cache, "readonly", False),
            "evictions": cache.stats["evictions"] if cache is not None else 0,
            "evicted_bytes": cache.stats["evicted_bytes"] if cache is not None else 0,
        },
        # Unlike the cache section this one DOES gate: quality_regressions
        # rejects any record with a non-empty failures list.
        "failures": [
            {"index": index, **error.summary()} for index, error in batch.failures
        ],
        "routers": batch.per_router(),
    }
    return record


def render_trajectory(record: dict) -> str:
    """A compact human-readable view of one trajectory record."""
    lines = [f"{'router':12s} {'swaps':>8s} {'depth':>8s} {'seconds':>9s} {'evals':>10s}"]
    for name, stats in sorted(record["routers"].items()):
        lines.append(
            f"{name:12s} {stats['mean_swaps']:8.2f} {stats['mean_depth']:8.2f} "
            f"{stats['mean_seconds']:9.4f} {stats['mean_cost_evaluations']:10.1f}"
        )
    total_runs = sum(stats["runs"] for stats in record["routers"].values())
    cache = record.get("cache", {})
    cache_note = (
        f"cache {cache['hits']} hit(s) / {cache['misses']} miss(es)"
        if cache.get("enabled")
        else "cache off"
    )
    failures = record.get("failures") or []
    failure_note = f", {len(failures)} FAILED" if failures else ""
    lines.append(
        f"\nbatch: {total_runs} runs{failure_note}, {record['workers']} worker(s), "
        f"wall {record['wall_seconds']:.2f}s, {cache_note}"
    )
    if record["workers"] > 1:
        lines.append(
            "note: per-request seconds were measured under "
            f"{record['workers']}-way process contention; compare mean_seconds "
            "trajectories only between workers=1 runs"
        )
    return "\n".join(lines)


def quality_regressions(record: dict, baseline: dict) -> list[str]:
    """Quality drift between two trajectory records (same fixture expected).

    Routing is bit-for-bit deterministic per seed, so for a performance-only
    change ``mean_swaps`` and ``mean_depth`` must match the baseline exactly
    for every router the two records share; ``mean_seconds``, cost evaluation
    counts and the cache-timing fields (the top-level ``cache`` section:
    enabled flag, hit/miss counters) are allowed to move -- cache hit rates
    change run to run without the routed bits changing, so they must never
    trip this gate.  Returns one human-readable line per divergence (empty
    list = no quality change).
    """
    problems: list[str] = []
    failures = record.get("failures") or []
    if failures:
        # A partially-failed run has holes in its per-router means; letting
        # it through would compare a subset against the full baseline and
        # could silently mask drift (or fake it).  Refuse outright.
        problems.append(
            f"{len(failures)} request(s) failed in this run "
            f"(first: request {failures[0]['index']}: {failures[0]['error']} in "
            f"{failures[0]['phase']} pass); a partially-failed trajectory "
            "cannot gate quality drift"
        )
    if record.get("fixture") != baseline.get("fixture"):
        problems.append(
            f"fixture mismatch: {record.get('fixture')} != {baseline.get('fixture')}"
        )
    current = record.get("routers", {})
    previous = baseline.get("routers", {})
    for router in sorted(set(current) & set(previous)):
        for metric in ("mean_swaps", "mean_depth"):
            new, old = current[router][metric], previous[router][metric]
            if new != old:
                problems.append(
                    f"{router}: {metric} changed {old} -> {new} "
                    "(routed output diverged; run the golden tests)"
                )
    for router in sorted(set(previous) - set(current)):
        problems.append(f"{router}: present in baseline but missing from this run")
    return problems
