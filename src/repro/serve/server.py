"""``repro-serve``: the long-running async compile service.

One process, one warm :class:`~repro.api.cache.CompileCache`, many requests.
The service wraps the pure-function ``repro.api`` pipeline in an asyncio
daemon speaking JSON over HTTP:

* ``POST /v1/compile``      compile one request (``?async=1`` returns a job
  handle instead of blocking),
* ``POST /v1/batch``        compile a list via ``compile_many`` with
  ``on_error="collect"`` (structured per-slot failures),
* ``GET  /v1/jobs/<id>``    poll an async job,
* ``GET  /healthz``         liveness + version,
* ``GET  /metrics``         JSON counters, gauges, per-phase latency
  histograms and the shared cache statistics,
* ``POST /admin/drain``     graceful shutdown: finish in-flight work, reject
  new work, exit 0.

Architecture: admission is synchronous on the event-loop thread (decode ->
fingerprint -> cache lookup -> coalesce-or-enqueue, with no await between
the lookup and the registration, so coalescing has no race window); one
bounded :class:`asyncio.PriorityQueue` holds admitted jobs, lower priority
values first and ties in arrival order, and a full queue is explicit
backpressure (HTTP 429 + ``Retry-After``).  ``workers`` asyncio tasks drain the
queue.  Each runs its job on a thread of the service's own executor (one
thread per worker, so the loop's default executor stays free for
``/metrics``), through ``compile_many``'s scheduler (``on_error="collect"``),
so per-request timeouts, retries and worker-crash reaping behave
identically to the CLI.
Every miss compiles in one of ``workers`` forked children that live as long
as the service (:mod:`repro.api.batch`'s pool, forked at the first miss):
the executor thread waits on the child's pipe, which releases the GIL, so
no compile holds up the event loop.  ``timeout`` kills and replaces a child.
The child replies with the result's payload; the server process stores it
and answers with the stored payload, so it encodes no miss.  A
``/v1/compile`` miss compiles with the cache off and is stored under the
fingerprint admission computed, so each served request is fingerprinted
and looked up once.  A memory-tier hit (``/v1/compile``, or ``/v1/batch``
through ``compile_many``) answers with the stored gate table, neither
decoded nor re-encoded.  A malformed request's 400 is followed by a
half-close and a bounded discard of its unread bytes.

Determinism makes the service semantics simple: a compile result is a pure
function of its request, so identical in-flight requests legally **coalesce**
onto one computation (every waiter gets the same bit-identical payload),
retries are idempotent, and the served payload is byte-comparable to a
direct :func:`repro.api.compile` call.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import itertools
import json
import logging
import math
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass, field

from repro._version import __version__
from repro.api.batch import _compile_many, _Pool, check_batch_options
from repro.api.cache import CompileCache, check_cache_bounds, request_fingerprint
from repro.api.request import CompileRequest
from repro.api.result import CompileError, CompileResult
from repro.api.serialize import result_to_payload
from repro.obs.export import append_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, new_trace_id, use_tracer
from repro.serve.jobs import Job, JobTable
from repro.serve.protocol import (
    ProtocolError,
    compile_error_body,
    decode_batch_body,
    decode_compile_body,
    error_body,
)

logger = logging.getLogger(__name__)


@dataclass
class ServeConfig:
    """Configuration of one service instance (mirrors ``repro-map serve``)."""

    host: str = "127.0.0.1"
    port: int = 8653
    #: Worker tasks, and the forked compile children their misses run in.
    workers: int = 1
    queue_size: int = 64
    cache_dir: str | None = None
    cache_memory_entries: int = 1024
    cache_max_bytes: int | None = None
    cache_max_entries: int | None = None
    cache_readonly: bool = False
    timeout: float | None = None
    retries: int = 0
    #: JSONL trace sink: each finished job appends its request trace here.
    trace_out: str | None = None

    def check(self) -> None:
        # Every served miss hands timeout and retries to compile_many: a value
        # it would reject fails here, at start, and not at each miss.
        check_batch_options(self.workers, self.timeout, self.retries, 0.0, "collect")
        # The only guard: asyncio.PriorityQueue treats a bound below 1 as no bound.
        size = self.queue_size
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(f"queue size must be at least 1 (an int), got {size!r}")
        if self.cache_dir is None and (
            self.cache_max_bytes is not None
            or self.cache_max_entries is not None
            or self.cache_readonly
        ):
            raise ValueError(
                "cache_max_bytes/cache_max_entries/cache_readonly require cache_dir"
            )
        check_cache_bounds(
            self.cache_memory_entries,
            self.cache_max_bytes,
            self.cache_max_entries,
            names=("cache_memory_entries", "cache_max_bytes", "cache_max_entries"),
        )


@dataclass
class Response:
    """One handler outcome: HTTP status, JSON body, extra headers.

    ``text`` switches the wire encoding to ``text/plain`` (the Prometheus
    exposition endpoint); the JSON ``body`` is ignored when it is set.
    """

    status: int
    body: dict
    headers: dict = field(default_factory=dict)
    text: str | None = None


class CompileService:
    """The socket-free service core (handlers are directly testable)."""

    def __init__(self, config: ServeConfig | None = None, cache: CompileCache | None = None):
        self.config = config or ServeConfig()
        self.config.check()
        if cache is not None:
            self.cache = cache
        else:
            self.cache = CompileCache(
                max_memory_entries=self.config.cache_memory_entries,
                directory=self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
                max_entries=self.config.cache_max_entries,
                readonly=self.config.cache_readonly,
            )
        self.metrics = MetricsRegistry()
        self.jobs = JobTable()
        # Entries are (priority, arrival, (job, work, enqueued_at)).  Built
        # once, here: it binds to the first event loop that waits on it.
        self.queue = asyncio.PriorityQueue(self.config.queue_size)
        self._arrivals = itertools.count()
        self.draining = False
        self.started = time.monotonic()
        self._workers: list[asyncio.Task] = []
        self._shutdown = asyncio.Event()
        self._drain_watcher: asyncio.Task | None = None
        #: Recent execution times, for the 429 Retry-After estimate.
        self._recent_seconds: deque[float] = deque(maxlen=32)
        #: Serialises trace-sink appends across executor threads.
        self._trace_lock = threading.Lock()
        #: The forked children every miss compiles in, one per worker.
        self._pool = _Pool(self.config.workers)
        #: The threads jobs run on, one per worker.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            self.config.workers, thread_name_prefix="repro-serve"
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"repro-serve-worker-{n}")
            for n in range(self.config.workers)
        ]

    async def stop(self) -> None:
        """Cancel the worker tasks and the drain watcher, then stop the children.

        A child still compiling is killed; every child and executor thread
        is joined.
        """
        tasks = list(self._workers)
        if self._drain_watcher is not None:
            tasks.append(self._drain_watcher)
        self._workers = []
        self._drain_watcher = None
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._pool.close()
        await asyncio.to_thread(self._executor.shutdown)

    async def wait_for_shutdown(self) -> None:
        await self._shutdown.wait()

    # -- dispatch ------------------------------------------------------------

    async def handle(self, method: str, path: str, query: dict | None = None, body=None) -> Response:
        """Route one request to its handler (the socket-free entry point).

        Every response is tagged with a per-request trace id: an
        ``X-Trace-Id`` header always, a top-level ``trace_id`` body key on
        JSON responses.  With ``--trace-out`` configured the same id names
        the request's span fragment in the sink file, so a client-side
        failure report can be joined to the server-side trace.
        """
        trace_id = new_trace_id()
        response = await self._dispatch(method, path, query or {}, body, trace_id)
        response.headers.setdefault("X-Trace-Id", trace_id)
        if response.text is None and isinstance(response.body, dict):
            response.body.setdefault("trace_id", trace_id)
        return response

    async def _dispatch(
        self, method: str, path: str, query: dict, body, trace_id: str
    ) -> Response:
        self.metrics.increment("http_requests")
        try:
            if path == "/healthz" and method == "GET":
                return Response(200, self.healthz_payload())
            if path == "/metrics" and method == "GET":
                if str(query.get("format", "")).lower() in ("prometheus", "text"):
                    return Response(
                        200,
                        {},
                        headers={
                            "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
                        },
                        text=self.prometheus_payload(),
                    )
                return Response(200, await self.metrics_payload())
            if path == "/v1/compile" and method == "POST":
                return await self.handle_compile(
                    body,
                    wait=str(query.get("async", "")).lower() not in ("1", "true"),
                    trace_id=trace_id,
                )
            if path == "/v1/batch" and method == "POST":
                return await self.handle_batch(body, trace_id=trace_id)
            if path.startswith("/v1/jobs/") and method == "GET":
                return self.handle_job(path[len("/v1/jobs/"):])
            if path == "/admin/drain" and method == "POST":
                return self.handle_drain()
            if path in ("/healthz", "/metrics", "/v1/compile", "/v1/batch", "/admin/drain"):
                self.metrics.increment("http_405")
                return Response(405, error_body(f"method {method} not allowed for {path}"))
            self.metrics.increment("http_404")
            return Response(404, error_body(f"unknown path {path!r}"))
        except ProtocolError as exc:
            self.metrics.increment("http_400")
            return Response(400, error_body(str(exc)))

    # -- endpoint handlers ---------------------------------------------------

    async def handle_compile(
        self, body, wait: bool = True, trace_id: str | None = None
    ) -> Response:
        """``POST /v1/compile``: admit, coalesce or reject one request.

        Admission is fully synchronous (no awaits) from decode through
        registration, so two identical concurrent requests can never both
        miss the in-flight table.
        """
        request, priority = decode_compile_body(body)
        self.metrics.increment("compile_requests")
        if self.draining:
            self.metrics.increment("rejected_draining")
            return Response(503, error_body("server is draining; not accepting new work"))
        fingerprint = request_fingerprint(request)

        hit = self.cache.lookup(fingerprint, request)
        if hit is not None:
            self.metrics.increment("cache_hits")
            return Response(
                200,
                {
                    "ok": True,
                    "fingerprint": fingerprint,
                    "cached": True,
                    "result": result_to_payload(hit),
                },
            )
        self.metrics.increment("cache_misses")

        job = self.jobs.in_flight(fingerprint)
        if job is not None:
            # Identical request already queued or running: one computation,
            # every waiter receives the same bit-identical payload.
            job.coalesced += 1
            self.metrics.increment("coalesced")
        else:
            job = self.jobs.create(fingerprint, priority, kind="compile")
            rejected = self._enqueue(job, request, trace_id)
            if rejected is not None:
                return rejected
        if not wait:
            return Response(202, {"ok": True, "job": job.payload()})
        status, response = await asyncio.shield(job.future)
        return Response(status, response)

    async def handle_batch(self, body, trace_id: str | None = None) -> Response:
        """``POST /v1/batch``: one queue slot, ``compile_many`` underneath.

        The whole batch is admitted as a single job so backpressure and drain
        cover it, and it maps to ``compile_many(..., on_error="collect")`` --
        a failing slot arrives as a structured error in position while its
        siblings stay bit-identical to a clean run.
        """
        requests, priority = decode_batch_body(body)
        self.metrics.increment("batch_requests")
        if self.draining:
            self.metrics.increment("rejected_draining")
            return Response(503, error_body("server is draining; not accepting new work"))
        job = self.jobs.create(None, priority, kind="batch")
        rejected = self._enqueue(job, requests, trace_id)
        if rejected is not None:
            return rejected
        status, response = await asyncio.shield(job.future)
        return Response(status, response)

    def _enqueue(self, job: Job, work, trace_id: str | None) -> Response | None:
        """Queue a new job; on a full queue, fail it and return the 429."""
        job.trace_id = trace_id or new_trace_id()
        try:
            self.queue.put_nowait(
                (job.priority, next(self._arrivals), (job, work, time.monotonic()))
            )
        except asyncio.QueueFull:
            self.jobs.finish(job, 429, error_body("queue full", kind="Backpressure"))
            self.metrics.increment("rejected_busy")
            return Response(
                429,
                error_body(
                    f"compile queue full ({self.queue.maxsize} entries); retry later",
                    kind="Backpressure",
                ),
                headers={"Retry-After": str(self._retry_after_seconds())},
            )
        return None

    def handle_job(self, job_id: str) -> Response:
        self.metrics.increment("job_lookups")
        job = self.jobs.get(job_id)
        if job is None:
            return Response(404, error_body(f"unknown job {job_id!r}", kind="UnknownJob"))
        return Response(200, {"ok": True, "job": job.payload()})

    def handle_drain(self) -> Response:
        """``POST /admin/drain``: finish in-flight work, reject new, exit 0."""
        self.metrics.increment("drain_requests")
        if not self.draining:
            self.draining = True
            self._drain_watcher = asyncio.create_task(
                self._watch_drain(), name="repro-serve-drain"
            )
        return Response(
            202,
            {
                "ok": True,
                "draining": True,
                "pending": self.queue.qsize() + self.jobs.running_count(),
            },
        )

    def healthz_payload(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "workers": self.config.workers,
            "queue": {"depth": self.queue.qsize(), "maxsize": self.queue.maxsize},
            "jobs": self.jobs.counts(),
        }

    def _gauges(self) -> dict:
        return {
            "queue_depth": self.queue.qsize(),
            "queue_maxsize": self.queue.maxsize,
            "in_flight": self.jobs.in_flight_count(),
            "running": self.jobs.running_count(),
            "draining": self.draining,
        }

    def _extra_counters(self) -> dict:
        return {
            "cache_evictions": self.cache.stats["evictions"],
            "cache_evicted_bytes": self.cache.stats["evicted_bytes"],
        }

    async def metrics_payload(self) -> dict:
        snapshot = self.metrics.snapshot(
            gauges=self._gauges(), extra_counters=self._extra_counters()
        )
        # The same stats helper `repro-map cache info` prints: the service's
        # warm cache is the whole point of running a daemon, so its hit/miss
        # counters and disk-tier stats are first-class metrics.  The disk
        # statistics scan every row, so they are read off the event loop, on
        # the default executor, which runs no compile.
        snapshot["cache"] = await asyncio.to_thread(self.cache.info)
        snapshot["version"] = __version__
        return snapshot

    def prometheus_payload(self) -> str:
        """``GET /metrics?format=prometheus``: the same registry, text format."""
        return self.metrics.prometheus(
            gauges=self._gauges(), extra_counters=self._extra_counters()
        )

    # -- execution -----------------------------------------------------------

    def _retry_after_seconds(self) -> int:
        """A ``Retry-After`` hint: queue depth x recent mean execution time."""
        if self._recent_seconds:
            mean = sum(self._recent_seconds) / len(self._recent_seconds)
        else:
            mean = 1.0
        backlog = self.queue.qsize() + self.jobs.running_count()
        return max(1, math.ceil(backlog * mean / max(1, self.config.workers)))

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _, _, (job, work, enqueued_at) = await self.queue.get()
            try:
                job.state = "running"
                started = time.monotonic()
                self.metrics.observe("queue_wait", started - enqueued_at)
                try:
                    if job.kind == "batch":
                        run = functools.partial(self._run_batch, work)
                    else:
                        run = functools.partial(self._run_compile, work, job.fingerprint)
                    status, response = await loop.run_in_executor(
                        self._executor, self._run_traced, run, job
                    )
                except Exception as exc:  # the executor call itself failed
                    logger.exception("worker execution failed for %s", job.id)
                    status, response = compile_error_body(CompileError.from_exception(exc))
                elapsed = time.monotonic() - started
                self._recent_seconds.append(elapsed)
                self.metrics.observe("total", elapsed)
                if status < 400:
                    self.metrics.increment("executions")
                else:
                    self.metrics.increment("failures")
                self.jobs.finish(job, status, response)
            finally:
                self.queue.task_done()

    def _run_traced(self, run, job: Job) -> tuple[int, dict]:
        """Run one job in the executor thread, under a tracer when sinking.

        Without ``--trace-out`` this is a plain passthrough (no tracer, no
        overhead).  With it, the job executes under its own request tracer
        (keyed on the job's trace id, so the sink record joins the id the
        client saw) and the finished fragment appends to the JSONL sink
        under a lock -- executor threads share one file.
        """
        if self.config.trace_out is None:
            return run()
        tracer = Tracer(trace_id=job.trace_id)
        with use_tracer(tracer):
            with tracer.span("serve.request", kind=job.kind, job=job.id) as span:
                status, response = run()
                span.set("status", status)
        with self._trace_lock:
            append_trace(
                self.config.trace_out,
                tracer,
                meta={"tool": "repro-serve", "version": __version__, "job": job.id},
            )
        return status, response

    def _compile_in_pool(self, requests: list[CompileRequest], cache) -> tuple:
        """``compile_many`` on one of the service's children; see :func:`_compile_many`."""
        config = self.config
        return _compile_many(
            requests, workers=1, cache=cache, on_error="collect", timeout=config.timeout,
            retries=config.retries, backoff=0.0, pool=self._pool,
        )

    def _run_compile(self, request: CompileRequest, fingerprint: str) -> tuple[int, dict]:
        """Compile one admitted miss from the worker thread (the blocking hot path).

        Runs ``compile_many``'s scheduler on the single request, so the
        service's ``--timeout``/``--retries`` behave exactly like ``repro-map
        bench``'s, and every failure arrives as a structured
        :class:`CompileError` -- never as a dropped connection.
        Admission already fingerprinted the request and missed the cache, so
        the compile skips the cache, the result is stored under that
        fingerprint, and the response carries the payload the store returned.
        """
        batch, _ = self._compile_in_pool([request], None)
        outcome = batch.results[0]
        if isinstance(outcome, CompileResult):
            payload = self.cache.store(fingerprint, outcome)
            if payload is None:  # a subclass's store() that returns nothing
                payload = result_to_payload(outcome)
            self._observe_pass_timings(outcome)
            return 200, {
                "ok": True,
                "fingerprint": fingerprint,
                "cached": False,
                "result": payload,
            }
        return compile_error_body(outcome)

    def _run_batch(self, requests: list[CompileRequest]) -> tuple[int, dict]:
        """Run a batch through the shared cache; a miss answers with the payload stored."""
        batch, payloads = self._compile_in_pool(requests, self.cache)
        results = []
        for outcome, payload in zip(batch.results, payloads):
            if isinstance(outcome, CompileResult):
                self._observe_pass_timings(outcome)
                if payload is None:  # a hit, or a store() that returns nothing
                    payload = result_to_payload(outcome)
                results.append({"ok": True, "result": payload})
            else:
                results.append({"ok": False, "error": outcome.summary()})
        body = {
            "ok": batch.ok,
            "results": results,
            "summary": {
                "requests": len(batch),
                "failed": len(batch.errors),
                "cache": {"hits": batch.cache_hits, "misses": batch.cache_misses},
            },
        }
        # A partially-failed batch is still a *served* batch: the slot errors
        # are the payload, so the HTTP exchange itself succeeded (200).
        return 200, body

    def _observe_pass_timings(self, result: CompileResult) -> None:
        for phase, seconds in result.pass_timings.items():
            self.metrics.observe(f"pass_{phase}", seconds)

    async def _watch_drain(self) -> None:
        """Resolve the shutdown event once every admitted job has finished."""
        await self.queue.join()
        self._shutdown.set()


# ---------------------------------------------------------------------------
# The HTTP front-end (a deliberately minimal HTTP/1.1 JSON server)
# ---------------------------------------------------------------------------

_MAX_BODY_BYTES = 64 * 1024 * 1024
#: Header lines one request may carry (the bound ``http.client`` applies).
_MAX_HEADER_LINES = 100
#: Bounds on the unread bytes dropped after a 400: a close on unread bytes
#: resets the connection, and the client may lose the 400.
_DISCARD_BYTES = 4 * 1024 * 1024
_DISCARD_SECONDS = 2.0
_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode_response(response: Response) -> bytes:
    extra = dict(response.headers)
    if response.text is not None:
        body = response.text.encode()
        content_type = extra.pop("Content-Type", "text/plain; charset=utf-8")
    else:
        body = json.dumps(response.body, sort_keys=True).encode()
        content_type = extra.pop("Content-Type", "application/json")
    reason = _STATUS_REASONS.get(response.status, "Unknown")
    headers = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra.items())
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


async def _read_line(reader) -> bytes:
    """One request or header line; one longer than the stream limit is malformed."""
    try:
        return await reader.readline()
    except ValueError:  # the line overran the StreamReader's limit
        raise ProtocolError("HTTP request line or header line too long") from None


async def _read_request(reader) -> tuple[str, str, dict, object] | None:
    """Parse one HTTP/1.1 request: ``(method, path, query, json_body)``.

    Returns ``None`` on a cleanly closed connection; raises
    :class:`ProtocolError` on anything malformed.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        method, target, _ = request_line.decode("latin-1").split(" ", 2)
    except ValueError:
        raise ProtocolError("malformed HTTP request line") from None
    content_length = 0
    header_lines = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        header_lines += 1
        if header_lines > _MAX_HEADER_LINES:
            raise ProtocolError(f"HTTP request has more than {_MAX_HEADER_LINES} header lines")
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            # 1*DIGIT (RFC 9110): int() would also take "-5", "+5" and "1_0".
            digits = value.strip()
            if not (digits.isascii() and digits.isdigit()):
                raise ProtocolError("malformed Content-Length header")
            content_length = int(digits)
    if content_length > _MAX_BODY_BYTES:
        raise ProtocolError(f"request body exceeds {_MAX_BODY_BYTES} bytes")
    raw_body = await reader.readexactly(content_length) if content_length else b""
    path, _, query_string = target.partition("?")
    query = {
        key: values[-1]
        for key, values in urllib.parse.parse_qs(query_string).items()
    }
    body = None
    if raw_body:
        try:
            body = json.loads(raw_body)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    return method.upper(), urllib.parse.unquote(path), query, body


async def _discard_input(reader, remaining: int) -> None:
    """Read and drop up to ``remaining`` bytes, until EOF."""
    while remaining > 0 and (chunk := await reader.read(min(remaining, 64 * 1024))):
        remaining -= len(chunk)


async def run_server(
    config: ServeConfig,
    service: CompileService | None = None,
    ready=None,
) -> int:
    """Run the service until drained (returns 0) or cancelled.

    ``ready`` is called with the actually bound port once the listener is
    up (``port=0`` binds an ephemeral port), which is how tests and the CLI
    learn the address before the first request.
    """
    service = service or CompileService(config)
    await service.start()
    connections: set[asyncio.Task] = set()

    async def _handle_connection(reader, writer):
        task = asyncio.current_task()
        if task is not None:
            connections.add(task)
            task.add_done_callback(connections.discard)
        rejected = False
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            method, path, query, body = parsed
            response = await service.handle(method, path, query, body)
        except ProtocolError as exc:
            response = Response(400, error_body(str(exc)))
            rejected = True
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except Exception as exc:  # never let a handler bug drop a connection
            logger.exception("unhandled error serving a request")
            response = Response(
                500, error_body(str(exc) or type(exc).__name__, kind=type(exc).__name__)
            )
        try:
            writer.write(_encode_response(response))
            await writer.drain()
            if rejected:  # the client reads the 400, then EOF
                writer.write_eof()
                await asyncio.wait_for(_discard_input(reader, _DISCARD_BYTES), _DISCARD_SECONDS)
        except (OSError, asyncio.TimeoutError):  # gone, or still sending
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    server = await asyncio.start_server(_handle_connection, config.host, config.port)
    bound_port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(bound_port)
    logger.info("repro-serve listening on %s:%d", config.host, bound_port)
    try:
        async with server:
            await service.wait_for_shutdown()
            # Let in-flight responses (including the drain acknowledgement
            # itself) flush before the listener and loop go away.
            if connections:
                await asyncio.wait(set(connections), timeout=5)
    finally:
        await service.stop()
    return 0


def serve_forever(config: ServeConfig, ready=None) -> int:
    """Blocking entry point (what ``repro-map serve`` calls)."""
    try:
        return asyncio.run(run_server(config, ready=ready))
    except KeyboardInterrupt:
        return 0
