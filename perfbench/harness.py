"""Shared pieces of the benchmark: metric tables, statistics, timing, context.

Every workload measures the same way.  A *pass* is one sweep of the
workload's request set.  A run makes a fixed number of passes, worked out
from ``--seconds`` and the workload's ``pass_seconds``, so every commit and
every host does the same work and a tail percentile always falls on the
same sample rank.  Latencies are pooled over all passes; CPU and throughput
are medians over passes.

Every time is scaled to a reference host speed (see ``HostClock``): on a
shared machine the same work takes up to 1.8 times longer from one moment
to the next, in a mix that changes from minute to minute.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

#: End-to-end metrics (``--trace 0``): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_p50_ms": ("ms", "lower"),
    "cold_tail_ms": ("ms", "lower"),
    "hit_p50_ms": ("ms", "lower"),
    "hit_tail_ms": ("ms", "lower"),
    "throughput_rps": ("req/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "swaps_sum": ("count", "lower"),
    "depth_sum": ("count", "lower"),
}

#: Every router any workload runs; per-router layer metrics cover all of them.
ROUTERS = ("sabre", "lightsabre", "cirq", "tket", "qmap", "greedy", "qlosure")
KERNEL_COUNTERS = (
    "cost_evaluations",
    "candidate_total",
    "front_rebuilds",
    "heuristic_cache_hits",
    "swaps_applied",
)


def _per_layer_table() -> dict:
    table = {f"route_ms.{router}": ("ms", "lower") for router in ROUTERS}
    for counter in KERNEL_COUNTERS:
        for router in ROUTERS:
            table[f"kernel.{counter}.{router}"] = ("count", "lower")
    table.update(
        {
            "place_ms": ("ms", "lower"),
            "validate_ms": ("ms", "lower"),
            "metrics_ms": ("ms", "lower"),
            "load_ms": ("ms", "lower"),
            "qasm.gates_per_s": ("gates/s", "higher"),
            "fingerprint_ms": ("ms", "lower"),
            "lookup_ms.memory": ("ms", "lower"),
            "lookup_ms.disk": ("ms", "lower"),
            "lookup_ms.miss": ("ms", "lower"),
            "store_ms": ("ms", "lower"),
            "hit_ratio": ("ratio", "higher"),
            "disk_bytes": ("bytes", "lower"),
            "decode_ms": ("ms", "lower"),
            "encode_ms": ("ms", "lower"),
            "payload_kib": ("KiB", "lower"),
            "batch_overhead_ms": ("ms", "lower"),
            "handle_ms": ("ms", "lower"),
            "http_ms": ("ms", "lower"),
            "response_encode_ms": ("ms", "lower"),
            "response_kib": ("KiB", "lower"),
            "queue_wait_ms": ("ms", "lower"),
            "rejected": ("count", "lower"),
            "coalesced": ("count", "higher"),
            "trace_overhead": ("ratio", "lower"),
            "unaccounted_share": ("ratio", "lower"),
        }
    )
    return table


#: Per-layer metrics (``--trace 1``): name -> (unit, better).
PER_LAYER = _per_layer_table()

#: The tail rule: the reported percentile keeps this many samples beyond it.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken set-up)."""


# -- statistics ---------------------------------------------------------------


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With fewer than ``TAIL_BEYOND + 1`` samples no percentile qualifies.  The
    second-highest sample is reported instead, so one outlier cannot set the
    tail, and the record says how many samples lie beyond it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return {"value": 0.0, "percentile": None, "samples": 0, "beyond": 0}
    index = count - 1 - TAIL_BEYOND
    if index < 0:
        index = max(0, count - 2)
    return {
        "value": ordered[index],
        "percentile": round(100.0 * (index + 1) / count, 2),
        "samples": count,
        "beyond": count - 1 - index,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host speed ---------------------------------------------------------------


def _calibration_loop() -> int:
    """A fixed pure-Python job: breadth-first search on a 40x40 grid.

    It calls nothing of the program, so its time moves only with the host.
    """
    side = 40
    neighbours = {}
    for row in range(side):
        for col in range(side):
            node = row * side + col
            adjacent = []
            if row:
                adjacent.append(node - side)
            if col:
                adjacent.append(node - 1)
            if row < side - 1:
                adjacent.append(node + side)
            if col < side - 1:
                adjacent.append(node + 1)
            neighbours[node] = adjacent
    total = 0
    for source in (0, 17, 801, 1599):
        distance = {source: 0}
        frontier = [source]
        while frontier:
            reached = []
            for node in frontier:
                step = distance[node] + 1
                for other in neighbours[node]:
                    if other not in distance:
                        distance[other] = step
                        reached.append(other)
            frontier = reached
        total += sum(distance.values())
    return total


#: Seconds of one tick on a quiet host (2.1 GHz Xeon vCPU, CPython 3.11).
#: Scaled times read as they would on that host; the value only sets units.
REFERENCE_TICK_S = 0.0021
#: Ticks this close to a measured interval also describe the host during it.
TICK_WINDOW_S = 1.0
#: An interval with a longer stretch between two ticks is left unscaled.
#: The host's speed flips within a second, so a few ticks around a
#: multi-second compile say little about it: scaling the 1.7-4 s
#: ``route-256`` compiles doubled their spread.  Every ``batch-54`` and
#: ``serve-mix`` request and pass has ticks closer than this (the longest
#: requests, ``batch-54`` qmap compiles, reach 1 s).
MAX_TICK_GAP_S = 1.5


class HostClock:
    """The host's speed, sampled at quiet points of a run.

    A *tick* times the calibration loop, the fastest of three with the
    collector off, in wall and in CPU seconds.  Workloads tick between
    requests, when no thread of the process is busy.  A measured interval
    is multiplied by the host's mean relative speed around it: the mean of
    ``REFERENCE_TICK_S / tick`` over the ticks within ``TICK_WINDOW_S`` of
    it and the nearest tick on each side.  On a shared host the loop
    alternates between about 2.1 and 3.8 ms within a second, so speed is
    averaged (a median would jump between the two) over a window wider
    than one flip.  A compile's time over a tick's stayed within a few
    percent while both moved by half.  The time ticks take is left out of
    every pass.
    """

    def __init__(self):
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def tick(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started_wall, started_cpu = time.perf_counter(), time.process_time()
        walls, cpus = [], []
        try:
            for _ in range(3):
                wall, cpu = time.perf_counter(), time.process_time()
                _calibration_loop()
                walls.append(time.perf_counter() - wall)
                cpus.append(time.process_time() - cpu)
        finally:
            if collecting:
                gc.enable()
        self.at.append(time.perf_counter())
        self.wall.append(min(walls))
        self.cpu.append(min(cpus))
        self.spent_wall += self.at[-1] - started_wall
        self.spent_cpu += time.process_time() - started_cpu

    def _speed(self, ticks: list[float], start: float, end: float) -> float:
        inside = self.at[max(0, bisect_right(self.at, start) - 1) : bisect_left(self.at, end) + 1]
        if not inside or max(b - a for a, b in zip([start, *inside], [*inside, end])) > MAX_TICK_GAP_S:
            return 1.0
        first = max(0, bisect_right(self.at, start - TICK_WINDOW_S) - 1)
        last = min(len(self.at), bisect_left(self.at, end + TICK_WINDOW_S) + 1)
        return statistics.fmean(REFERENCE_TICK_S / tick for tick in ticks[first:last])

    def wall_factor(self, start: float, end: float) -> float:
        """Scale for a wall time measured over ``[start, end]`` (``perf_counter``)."""
        return self._speed(self.wall, start, end)

    def cpu_factor(self, start: float, end: float) -> float:
        """Scale for a CPU time measured over ``[start, end]``."""
        return self._speed(self.cpu, start, end)

    def summary(self) -> dict:
        if not self.at:
            return {"ticks": 0}
        return {
            "ticks": len(self.at),
            "reference_tick_ms": 1000.0 * REFERENCE_TICK_S,
            "tick_wall_ms": {
                "min": 1000.0 * min(self.wall),
                "median": 1000.0 * median(self.wall),
                "max": 1000.0 * max(self.wall),
            },
            "tick_cpu_ms_median": 1000.0 * median(self.cpu),
            "spent_s": self.spent_wall,
        }


# -- timing -------------------------------------------------------------------


@dataclass
class Sample:
    """One request as the caller saw it, with its ``perf_counter`` bounds."""

    kind: str  # "cold" (misses every cache) or "hit"
    start: float
    end: float
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """The passes of one measured phase."""

    clock: HostClock
    passes: list[list[Sample]] = field(default_factory=list)
    #: ``perf_counter`` bounds of each pass, and its wall and CPU seconds
    #: less the time its ticks took.
    pass_bounds: list[tuple[float, float]] = field(default_factory=list)
    pass_cpu: list[float] = field(default_factory=list)
    pass_wall: list[float] = field(default_factory=list)

    @property
    def samples(self) -> list[Sample]:
        return [sample for samples in self.passes for sample in samples]

    def latencies(self, kind: str) -> list[float]:
        """Every successful ``kind`` latency of the phase, pooled over passes, scaled."""
        return [
            sample.seconds * self.clock.wall_factor(sample.start, sample.end)
            for sample in self.samples
            if sample.kind == kind and sample.ok
        ]

    def scaled_pass_wall(self) -> list[float]:
        return [
            wall * self.clock.wall_factor(*bounds)
            for wall, bounds in zip(self.pass_wall, self.pass_bounds)
        ]

    def scaled_pass_cpu(self) -> list[float]:
        return [
            cpu * self.clock.cpu_factor(*bounds)
            for cpu, bounds in zip(self.pass_cpu, self.pass_bounds)
        ]

    def throughput(self) -> float:
        """Median over passes of requests per scaled wall second."""
        return median(
            [len(samples) / wall for samples, wall in zip(self.passes, self.scaled_pass_wall())]
        )

    def cpu(self) -> float:
        """Median over passes of the scaled CPU seconds of one pass."""
        return median(self.scaled_pass_cpu())


def measure(run_pass, passes: int, clock: HostClock, limit_s: float) -> Phase:
    """Run ``passes`` passes; stop early only once ``limit_s`` wall seconds are gone.

    ``time.process_time`` is the CPU of the whole process, every thread
    included, so a served workload's server threads count.  A tick closes
    every pass, so its last request lies between two ticks.
    """
    phase = Phase(clock)
    started = time.perf_counter()
    clock.tick()
    for _ in range(passes):
        gc.collect()
        spent_wall, spent_cpu = clock.spent_wall, clock.spent_cpu
        cpu = time.process_time()
        wall = time.perf_counter()
        phase.passes.append(run_pass())
        clock.tick()
        end = time.perf_counter()
        phase.pass_bounds.append((wall, end))
        phase.pass_wall.append(end - wall - (clock.spent_wall - spent_wall))
        phase.pass_cpu.append(time.process_time() - cpu - (clock.spent_cpu - spent_cpu))
        if end - started > limit_s:
            break
    return phase


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(root: Path, clock: HostClock) -> float:
    """Import time of the package in a fresh interpreter (set-up's first step), scaled."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.api, repro.serve, repro.obs, repro.benchgen.queko, "
        "repro.analysis.perf_trajectory; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    clock.tick()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    end = time.perf_counter()
    clock.tick()
    return float(done.stdout.strip().splitlines()[-1]) * clock.wall_factor(start, end)


# -- outputs ------------------------------------------------------------------


def gate_digest(circuit) -> str:
    """Hash of a routed gate sequence (name, operands, exact parameters)."""
    digest = hashlib.sha256()
    for gate in circuit:
        digest.update(repr((gate.name, gate.qubits, gate.params)).encode())
    return digest.hexdigest()


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref:"):
            return text
        ref = text.split(None, 1)[1]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(root: Path, args) -> dict:
    """What every record carries besides its numbers."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "commit": git_commit(root),
    }
