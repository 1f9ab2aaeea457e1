"""The three workloads: what each sends, and how its outputs are checked.

Every request runs ``validation="full"`` with router ``seed=0`` unless the
workload says otherwise.  The workload seed decides request order (all
workloads) and, on ``serve-mix``, which requests are drawn and the router
seeds of its misses.  The circuits themselves are pinned, so ``swaps_sum``
and ``depth_sum`` are exact from run to run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import threading
import time
from pathlib import Path

from repro.analysis.perf_trajectory import TRAJECTORY_ROUTERS, smoke_fixture
from repro.api import CompileRequest, compile, request_from_payload, result_from_payload
from repro.api.cache import CompileCache
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.backends import grid_16x16, sherbrooke_2x
from repro.obs import read_trace
from repro.qasm.writer import write_qasm_file
from repro.serve import CompileService, ServeConfig, run_server

from harness import BenchError, HostClock, Sample, gate_digest
from layers import TracedCache, TracedService


class Workload:
    """One workload: set-up, a measured pass, output checks."""

    name = ""
    #: Scaled seconds of one pass when the benchmark was written.  A run
    #: makes ``--seconds / pass_seconds`` passes (at least one), however
    #: fast the program or the host.
    pass_seconds = 1.0

    def __init__(self, work: Path, seed: int, tiny: bool, traced: bool, clock: HostClock):
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.traced = traced
        #: Ticked before every in-process request (see ``harness.HostClock``).
        self.clock = clock
        self.attempted = 0
        self.problems: list[str] = []
        #: key -> (gate digest, swaps, routed depth) of each distinct request.
        self.outputs: dict[str, tuple[str, int, int]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_pass(self, recorder) -> list[Sample]:
        raise NotImplementedError

    def check(self) -> None:
        """Checks that need work after the measured phase (none by default)."""

    def describe(self) -> dict:
        raise NotImplementedError

    def layer_counters(self) -> dict:
        return {}

    def start_recording(self, exec_trace: Path) -> None:
        """Turn on recording in threads the workload owns (a server's)."""

    def stop_recording(self, exec_trace: Path) -> tuple[list, dict]:
        """Spans and counters recorded outside the benchmark's own tracer."""
        return [], {}

    # -- shared checks -----------------------------------------------------

    def _call(self, recorder, kind: str, request: CompileRequest, cache, **attributes):
        """One in-process request: its sample and its result (``None`` if it failed)."""
        self.attempted += 1
        self.clock.tick()
        with recorder.call(kind, **attributes):
            start = time.perf_counter()
            try:
                result = compile(request, cache=cache)
            except Exception as exc:  # a failed request is counted, not fatal
                result = None
                self.problems.append(f"{attributes}: {type(exc).__name__}: {exc}")
            end = time.perf_counter()
        return Sample(kind, start, end, result is not None), result

    def _record(self, key: str, result, what: str) -> None:
        """Pin the first output of ``key``; any later one must be identical."""
        output = (gate_digest(result.routed_circuit), result.swaps_added, result.routed_depth)
        expected = self.outputs.setdefault(key, output)
        if output != expected:
            self.problems.append(f"{key}: {what} differs from its first result")

    def _record_cold(self, key: str, result, optimum: int) -> None:
        """A cold QUEKO result: pinned, and no shallower than the known optimum."""
        self._record(key, result, "cold result")
        if result.routed_depth < optimum:
            self.problems.append(
                f"{key}: routed depth {result.routed_depth} below the QUEKO optimum {optimum}"
            )

    def quality(self) -> tuple[int, int]:
        return (
            sum(swaps for _, swaps, _ in self.outputs.values()),
            sum(depth for _, _, depth in self.outputs.values()),
        )


class Route256(Workload):
    """``route-256``: 256-qubit QUEKO circuits routed in process, cache off."""

    name = "route-256"
    routers = ("sabre", "cirq", "tket", "qlosure")
    pass_seconds = 22.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Depth 4 and 6 give 410 and 614 gates; QUEKO seed = depth.  Some
        # other seeds make qlosure exceed its SWAP budget on this device.
        self.depths = (1,) if self.tiny else (4, 6)

    def setup(self) -> None:
        device = sherbrooke_2x()
        device.distance_table()
        generator = grid_16x16()
        self.optimal = {}
        self.requests = []
        for depth in self.depths:
            instance = generate_queko_circuit(
                generator, depth, seed=depth, name=f"queko-256-d{depth}"
            )
            self.optimal[instance.name] = instance.optimal_depth
            for router in self.routers:
                request = CompileRequest(
                    circuit=instance.circuit,
                    backend=device,
                    router=router,
                    seed=0,
                    validation="full",
                    label=instance.name,
                )
                self.requests.append((f"{instance.name}/{router}", request))
        random.Random(self.seed).shuffle(self.requests)

    def run_pass(self, recorder) -> list[Sample]:
        """Each request cold, then once more from a memory cache (the hit probe).

        The probe exists so that this workload reports the hit metrics too.
        It is one re-request per cold compile, about 5% of the pass, so the
        pass stays a measure of the route kernel.
        """
        samples = []
        probe = recorder.cache()
        for key, request in self.requests:
            attributes = {"router": request.router, "circuit": request.label}
            sample, result = self._call(recorder, "cold", request, False, **attributes)
            samples.append(sample)
            if result is None:
                continue
            self._record_cold(key, result, self.optimal[request.label])
            with recorder.prepare():
                probe.put(result)
            sample, hit = self._call(recorder, "hit", request, probe, **attributes)
            samples.append(sample)
            if hit is not None:
                self._record(key, hit, "memory-cache hit")
        if probe.stats["memory_hits"] != len(self.outputs):
            self.problems.append(
                f"probe answered {probe.stats['memory_hits']} of {len(self.outputs)} "
                "re-requests from cache"
            )
        return samples

    def describe(self) -> dict:
        return {
            "backend": "ibm-sherbrooke-2x (256 qubits)",
            "circuits": {name: {"optimal_depth": depth} for name, depth in self.optimal.items()},
            "generation_device": "grid_16x16",
            "routers": list(self.routers),
            "router_seed": 0,
            "cold": "compile(request, cache=False), each request once per pass",
            "hit": "compile(request, cache=memory CompileCache) once, "
            "right after the request's cold compile",
        }


class Batch54(Workload):
    """``batch-54``: the pinned 54-qubit QUEKO fixture as ``qasm=`` files."""

    name = "batch-54"
    pass_seconds = 5.0

    def setup(self) -> None:
        qasm_dir = self.work / "qasm"
        qasm_dir.mkdir(parents=True, exist_ok=True)
        self.optimal = {}
        self.requests = []
        for instance in smoke_fixture(quick=self.tiny):
            path = write_qasm_file(instance.circuit, qasm_dir / f"{instance.name}.qasm")
            self.optimal[instance.name] = instance.optimal_depth
            for router in TRAJECTORY_ROUTERS:
                request = CompileRequest(
                    qasm=path,
                    backend="sherbrooke",
                    router=router,
                    seed=0,
                    validation="full",
                    label=instance.name,
                )
                self.requests.append((f"{instance.name}/{router}", request))
        shuffle = random.Random(self.seed)
        self.cold_order = shuffle.sample(self.requests, len(self.requests))
        self.warm_order = shuffle.sample(self.requests, len(self.requests))
        self.passes = 0

    def run_pass(self, recorder) -> list[Sample]:
        directory = self.work / f"cache-{self.passes}"
        self.passes += 1
        self.last_directory = directory
        samples = []
        cold = recorder.cache(directory=directory)
        for key, request in self.cold_order:
            sample, result = self._call(
                recorder, "cold", request, cold, router=request.router, circuit=request.label
            )
            samples.append(sample)
            if result is not None:
                self._record_cold(key, result, self.optimal[request.label])
        warm = recorder.cache(directory=directory, max_memory_entries=0)
        for key, request in self.warm_order:
            sample, result = self._call(
                recorder, "hit", request, warm, router=request.router, circuit=request.label
            )
            samples.append(sample)
            if result is not None:
                self._record(key, result, "warm disk hit")
        if warm.stats["disk_hits"] != len(self.warm_order):
            self.problems.append(
                f"warm pass: {warm.stats['disk_hits']} of {len(self.warm_order)} "
                "requests were disk hits"
            )
        return samples

    def layer_counters(self) -> dict:
        stats = CompileCache(directory=self.last_directory, readonly=True).disk_stats()
        return {"bench.disk_bytes": stats["bytes"]}

    def describe(self) -> dict:
        return {
            "backend": "ibm-sherbrooke (127 qubits), by name",
            "circuits": {name: {"optimal_depth": depth} for name, depth in self.optimal.items()},
            "generation_device": "sycamore-54-grid",
            "routers": list(TRAJECTORY_ROUTERS),
            "router_seed": 0,
            "cold": "compile(qasm= request, cache=fresh disk CompileCache)",
            "hit": "compile(same request, cache=new handle on that directory, memory tier off)",
        }


class _LoopbackServer:
    """``run_server`` on an ephemeral loopback port, in a thread of this process."""

    def __init__(self, config: ServeConfig, service: CompileService):
        self.port = None
        self.error = None
        ready = threading.Event()

        def on_ready(port):
            self.port = port
            ready.set()

        def serve():
            try:
                asyncio.run(run_server(config, service=service, ready=on_ready))
            except Exception as exc:  # reported to the caller below
                self.error = exc
            finally:
                ready.set()

        self.thread = threading.Thread(target=serve, name="perfbench-server")
        self.thread.start()
        ready.wait(timeout=60)
        if self.port is None:
            self.stop()
            raise BenchError(f"server did not start: {self.error!r}")

    def post(self, path: str, body: dict | None = None):
        """``(status, trace id, raw body)``; status 0 when the exchange failed."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            data = json.dumps(body).encode() if body is not None else b""
            connection.request("POST", path, body=data, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.getheader("X-Trace-Id"), response.read()
        except (OSError, http.client.HTTPException) as exc:
            return 0, None, repr(exc).encode()
        finally:
            connection.close()

    def stop(self) -> None:
        if self.thread.is_alive() and self.port is not None:
            self.post("/admin/drain")
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise BenchError("server thread did not stop after drain")


class ServeMix(Workload):
    """``serve-mix``: a closed loop over loopback HTTP, 80% cache hits."""

    name = "serve-mix"
    connections = 2
    #: Hits per miss in every pass: an 80% hit share.
    hits_per_miss = 4
    pass_seconds = 5.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        families = ("qft",) if self.tiny else ("qft", "qaoa", "ising", "adder")
        sizes = (8,) if self.tiny else (16, 32)
        self.pool = [
            {
                "generate": f"{family}:{size}",
                "backend": "sherbrooke",
                "router": router,
                "seed": 0,
                "validation": "full",
            }
            for family in families
            for size in sizes
            for router in ("sabre", "qlosure", "greedy")
        ]
        self.server = None
        self.setups = 0
        self.passes = 0
        self.used_seeds = {0}

    def setup(self) -> None:
        directory = self.work / f"serve-cache-{self.setups}"
        self.setups += 1
        config = ServeConfig(host="127.0.0.1", port=0, workers=self.connections, cache_dir=str(directory))
        # A traced run's untraced passes use these too, with recording off.
        service_class = TracedService if self.traced else CompileService
        cache_class = TracedCache if self.traced else CompileCache
        cache = cache_class(max_memory_entries=config.cache_memory_entries, directory=directory)
        self.service = service_class(config, cache=cache)
        self.server = _LoopbackServer(config, self.service)
        self.replies = []
        for body in self.pool:
            # Ticks keep set-up, which runs past MAX_TICK_GAP_S, scaled.
            self.clock.tick()
            status, _, raw = self.server.post("/v1/compile", body)
            self.replies.append(("prewarm", body, status, raw))
            if status != 200:
                raise BenchError(f"pre-warm request {body} answered {status}: {raw[:200]!r}")

    def teardown(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    def _plan(self) -> list[list[tuple[str, dict]]]:
        """This pass's requests: blocks of one miss and ``hits_per_miss`` hits.

        The draw is stratified: every pass sends each pool request
        ``hits_per_miss`` times as is (hits) and once with a fresh router
        seed (a miss), so every pass has the same mix and the hit share is
        exactly ``hits_per_miss / (hits_per_miss + 1)``.  The seed decides
        which requests share a block and their order within it.  One miss
        per block means a miss always overlaps hits, never another miss; in
        a plain shuffle that was left to chance and moved the miss median
        by about 15% from seed to seed.
        """
        draw = random.Random(self.seed * 1_000_003 + self.passes)
        self.passes += 1
        hits = [("hit", body) for body in self.pool for _ in range(self.hits_per_miss)]
        draw.shuffle(hits)
        misses = []
        for body in self.pool:
            miss = dict(body)
            while miss["seed"] in self.used_seeds:
                miss["seed"] = draw.randrange(1, 2**31)
            self.used_seeds.add(miss["seed"])
            misses.append(("miss", miss))
        draw.shuffle(misses)
        blocks = []
        for index, miss in enumerate(misses):
            block = [miss, *hits[index * self.hits_per_miss : (index + 1) * self.hits_per_miss]]
            draw.shuffle(block)
            blocks.append(block)
        return blocks

    def run_pass(self, recorder) -> list[Sample]:
        """The plan block by block, with a host-clock tick between blocks.

        Within a block the connections run a closed loop; between blocks the
        server is idle while the clock ticks.
        """
        blocks = self._plan()
        plan = [request for block in blocks for request in block]
        replies = [None] * len(plan)
        lock = threading.Lock()
        tracer = recorder.tracer

        def client(cursor):
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                kind, body = plan[index]
                with tracer.span("http.request", kind=kind) as active:
                    start = time.perf_counter()
                    status, trace_id, raw = self.server.post("/v1/compile", body)
                    end = time.perf_counter()
                if recorder.enabled:
                    active.span.trace_id = trace_id or "unanswered"
                    if status != 200:
                        tracer.count("bench.rejected")
                replies[index] = (kind, body, status, raw, start, end)

        size = self.hits_per_miss + 1
        for first in range(0, len(plan), size):
            self.clock.tick()
            cursor = iter(range(first, first + size))
            clients = [threading.Thread(target=client, args=(cursor,)) for _ in range(self.connections)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=170)
                if thread.is_alive():
                    raise BenchError("a client connection did not finish")
        self.attempted += len(plan)
        samples = []
        for kind, body, status, raw, start, end in replies:
            samples.append(Sample("hit" if kind == "hit" else "cold", start, end, status == 200))
            self.replies.append((kind, body, status, raw))
        return samples

    def check(self) -> None:
        """Every reply must equal an in-process ``compile()`` of its request."""
        references: dict[str, tuple] = {}
        decoded: dict[tuple[str, str], tuple] = {}
        for kind, body, status, raw in self.replies:
            key = json.dumps(body, sort_keys=True)
            if status != 200:
                self.problems.append(f"{key}: HTTP {status}: {raw[:200]!r}")
                continue
            reply = json.loads(raw)
            if reply.get("cached") != (kind == "hit"):
                self.problems.append(f"{key}: {kind} request answered with cached={reply.get('cached')}")
            request = request_from_payload(body)
            if key not in references:
                reference = compile(request, cache=False)
                references[key] = (
                    gate_digest(reference.routed_circuit),
                    reference.swaps_added,
                    reference.routed_depth,
                )
            text = json.dumps(reply["result"], sort_keys=True)
            if (key, text) not in decoded:
                served = result_from_payload(reply["result"], request)
                decoded[key, text] = (
                    gate_digest(served.routed_circuit),
                    served.swaps_added,
                    served.routed_depth,
                )
            if decoded[key, text] != references[key]:
                self.problems.append(f"{key}: served result differs from in-process compile()")
            if kind == "prewarm":
                self.outputs[key] = references[key]

    def start_recording(self, exec_trace: Path) -> None:
        self.coalesced = self.service.metrics.counter("coalesced")
        self.service.config.trace_out = str(exec_trace)
        self.service.recording = True

    def stop_recording(self, exec_trace: Path) -> tuple[list, dict]:
        self.service.recording = False
        self.service.config.trace_out = None
        spans = self.service.take_spans()
        counters = {}
        if exec_trace.exists():
            _, job_spans, counters = read_trace(exec_trace)
            spans.extend(job_spans)
        return spans, counters

    def layer_counters(self) -> dict:
        return {
            "bench.disk_bytes": self.service.cache.disk_stats()["bytes"],
            "bench.coalesced": self.service.metrics.counter("coalesced") - self.coalesced,
        }

    def describe(self) -> dict:
        return {
            "backend": "ibm-sherbrooke (127 qubits), by name",
            "pool": [f"{body['generate']}/{body['router']}" for body in self.pool],
            "routers": ["sabre", "qlosure", "greedy"],
            "router_seed": "0 for pool draws; a fresh seeded draw for each miss",
            "loop": f"closed, {self.connections} connections, within blocks of "
            f"1 miss + {self.hits_per_miss} hits",
            "pass": f"each pool request {self.hits_per_miss}x as a hit, 1x with a fresh seed",
            "hit_share": self.hits_per_miss / (self.hits_per_miss + 1),
            "server": "repro.serve run_server on 127.0.0.1, disk cache, workers=2",
            "quality_sums": "over the pool (the pre-warm replies)",
        }


WORKLOADS = {workload.name: workload for workload in (Route256, Batch54, ServeMix)}
