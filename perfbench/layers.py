"""The traced run: the benchmark's own spans, and per-layer numbers from a trace.

Nothing here changes the program.  The benchmark records spans *around* the
public calls each layer is reached through, on top of the spans the program
already emits (``compile`` and its ``load``/``place``/``route``/``validate``/
``metrics`` passes, the ``batch``/``request`` spans of ``compile_many``, the
served job's ``serve.request``, and the ``kernel.*`` counters):

* :class:`TracedCache` is a :class:`~repro.api.cache.CompileCache` whose
  ``lookup`` and ``store`` open ``cache.lookup`` (tagged with the tier that
  answered) and ``cache.store`` spans; it is passed wherever a cache is.
* :class:`TracedService` is a :class:`~repro.serve.CompileService` whose
  ``handle`` opens a ``serve.handle`` span; it is passed to ``run_server``.
* :func:`instrumented` wraps, for the duration of the traced passes, the
  module-level names through which the layers call ``request_fingerprint``
  (``fingerprint``), ``result_from_payload`` (``decode``),
  ``result_to_payload`` (``encode``), ``load_circuit`` (``load_circuit``) and
  the server's response encoder (``serve.encode_response``).

The service handles many requests on one event-loop thread, so a span stack
per thread would interleave them.  Each served request therefore records
into its own :class:`~repro.obs.Tracer`, found through a context variable
(one per connection task); executor threads record into the job tracer the
service installs when ``ServeConfig.trace_out`` is set.  All spans of one
served request carry the trace id the service returns in ``X-Trace-Id``,
and :func:`link_served` parents them across threads before the trace is
written.

A layer's number is its *self time*: span duration minus its children's.
"""

from __future__ import annotations

import contextvars
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager

import repro.api.cache as api_cache
import repro.api.pipeline as api_pipeline
import repro.serve.server as serve_server
from repro.api.cache import CompileCache
from repro.obs import NULL_TRACER, Tracer, current_tracer, use_tracer
from repro.serve import CompileService

from harness import KERNEL_COUNTERS, ROUTERS, BenchError

#: The per-request tracer of the served request running on this task.
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: Root spans of one caller-side request (in process, and over HTTP).
REQUEST_ROOTS = ("bench.call", "http.request")
#: Spans whose self time belongs to no named layer: the benchmark's own
#: call glue and the pipeline's glue between passes.
UNNAMED = frozenset({"bench.call", "compile"})


def active_tracer():
    """The served request's tracer on the event loop, else the thread's."""
    record = _REQUEST.get()
    return record.tracer if record is not None else current_tracer()


# -- spans around public calls --------------------------------------------------


def _spanned(name, function, describe=None):
    def wrapper(*args, **kwargs):
        tracer = active_tracer()
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
        if describe is not None and tracer.enabled:
            describe(span, args, kwargs, result)
        return result

    return wrapper


#: ``(span, payload)`` of every traced encode.  The payloads are sized when
#: the traced passes are over, so the benchmark's own serialization stays
#: out of every span.
_ENCODED: list = []


def _keep_payload(span, args, kwargs, payload) -> None:
    _ENCODED.append((span, payload))


def _size_payloads() -> None:
    for span, payload in _ENCODED:
        span.set("kib", len(json.dumps(payload, sort_keys=True)) / 1024.0)
    _ENCODED.clear()


def _circuit_source(span, args, kwargs, circuit) -> None:
    sources = dict(zip(("circuit", "qasm", "generate"), args))
    sources.update(kwargs)
    source = next((key for key in ("qasm", "generate") if sources.get(key) is not None), "circuit")
    span.update({"source": source, "gates": len(circuit)})


def _response_size(span, args, kwargs, data) -> None:
    span.set("bytes", len(data))


#: (module, attribute, span name, attribute function) of every wrapped call.
_WRAPPED = (
    (api_cache, "request_fingerprint", "fingerprint", None),
    (serve_server, "request_fingerprint", "fingerprint", None),
    (api_cache, "result_from_payload", "decode", None),
    (api_cache, "result_to_payload", "encode", _keep_payload),
    (serve_server, "result_to_payload", "encode", _keep_payload),
    (api_pipeline, "load_circuit", "load_circuit", _circuit_source),
    (serve_server, "_encode_response", "serve.encode_response", _response_size),
)


@contextmanager
def instrumented():
    """Wrap the layer entry points in spans; restore them and size payloads on exit.

    A wrapped name that the program no longer has is an error: the layer
    it measures would otherwise read 0 without notice.
    """
    saved = []
    try:
        for module, attribute, name, describe in _WRAPPED:
            original = getattr(module, attribute, None)
            if original is None:
                raise BenchError(
                    f"{module.__name__}.{attribute} is gone; the {name} layer cannot be traced"
                )
            saved.append((module, attribute, original))
            setattr(module, attribute, _spanned(name, original, describe))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
        _size_payloads()


class TracedCache(CompileCache):
    """A compile cache that records a span per lookup and per store."""

    def lookup(self, fingerprint, request):
        tracer = active_tracer()
        disk_hits = self.stats["disk_hits"]
        with tracer.span("cache.lookup") as span:
            result = super().lookup(fingerprint, request)
        if tracer.enabled:
            if result is None:
                span.set("tier", "miss")
            else:
                span.set("tier", "disk" if self.stats["disk_hits"] > disk_hits else "memory")
        return result

    def store(self, fingerprint, result):
        with active_tracer().span("cache.store"):
            super().store(fingerprint, result)


class _ServedRequest:
    __slots__ = ("tracer", "trace_id")

    def __init__(self):
        self.tracer = Tracer()
        self.trace_id = None


class TracedService(CompileService):
    """A compile service that records a ``serve.handle`` span per request.

    Recording is off until :attr:`recording` is set, so set-up traffic
    leaves no spans.
    """

    def __init__(self, config=None, cache=None):
        super().__init__(config, cache)
        self.recording = False
        self.served: list[_ServedRequest] = []

    async def handle(self, method, path, query=None, body=None):
        if not self.recording:
            return await super().handle(method, path, query, body)
        served = _ServedRequest()
        # Stays set for the rest of this connection's task, so the response
        # encoder that runs after ``handle`` returns records here too.
        _REQUEST.set(served)
        with served.tracer.span("serve.handle", path=path) as span:
            response = await super().handle(method, path, query, body)
            span.set("status", response.status)
            if isinstance(response.body, dict) and "cached" in response.body:
                span.set("cached", response.body["cached"])
        served.trace_id = response.headers.get("X-Trace-Id")
        self.served.append(served)
        return response

    def take_spans(self) -> list:
        """The recorded spans, each stamped with its request's trace id."""
        spans = []
        for served in self.served:
            for span in served.tracer.spans:
                span.trace_id = served.trace_id
                spans.append(span)
        self.served = []
        return spans


class Recorder:
    """What a workload records through; the untraced one records nothing."""

    def __init__(self, tracer=NULL_TRACER):
        self.tracer = tracer
        self.enabled = tracer.enabled

    def call(self, phase: str, **attributes):
        """The caller-side root span of one request."""
        return self.tracer.span("bench.call", phase=phase, **attributes)

    def prepare(self):
        """A root span for work that is not a request (excluded from accounting)."""
        return self.tracer.span("bench.prepare")

    def cache(self, **kwargs) -> CompileCache:
        return TracedCache(**kwargs) if self.enabled else CompileCache(**kwargs)

    @contextmanager
    def installed(self):
        """This thread's tracer, and the layer entry points wrapped in spans."""
        with use_tracer(self.tracer), instrumented():
            yield


UNTRACED = Recorder()


def link_served(spans: list) -> None:
    """Parent served spans across threads by the request's trace id.

    The service's handle and response encoder run on the event loop and the
    job on an executor thread; each starts a fresh stack, so their roots are
    joined to the client's round trip and to the handle here.
    """
    http = {span.trace_id: span.span_id for span in spans if span.name == "http.request"}
    handles = {span.trace_id: span.span_id for span in spans if span.name == "serve.handle"}
    for span in spans:
        if span.parent_id is not None:
            continue
        if span.name in ("serve.handle", "serve.encode_response"):
            span.parent_id = http.get(span.trace_id)
        elif span.name == "serve.request":
            span.parent_id = handles.get(span.trace_id)


# -- per-layer numbers from a trace ---------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class SpanTree:
    """Parent/child links and self times of one trace's spans."""

    def __init__(self, spans: list):
        self.spans = spans
        ids = {span.span_id for span in spans}
        self.children = defaultdict(list)
        for span in spans:
            if span.parent_id in ids:
                self.children[span.parent_id].append(span)
        self.self_time = {
            span.span_id: max(
                0.0, span.duration - sum(child.duration for child in self.children[span.span_id])
            )
            for span in spans
        }

    def named(self, name: str, **match) -> list:
        return [
            span
            for span in self.spans
            if span.name == name
            and all(span.attributes.get(key) == value for key, value in match.items())
        ]

    def mean_self_ms(self, name: str, **match) -> float:
        return 1000.0 * _mean(self.self_time[span.span_id] for span in self.named(name, **match))

    def subtree(self, root) -> list:
        stack, seen = [root], []
        while stack:
            span = stack.pop()
            seen.append(span)
            stack.extend(self.children[span.span_id])
        return seen


def layer_metrics(spans: list, counters: dict) -> dict:
    """Every per-layer metric except ``trace_overhead`` (which needs two runs)."""
    tree = SpanTree(spans)
    self_time = tree.self_time
    metrics: dict[str, float] = {}

    for router in ROUTERS:
        routes = tree.named("route", router=router)
        metrics[f"route_ms.{router}"] = tree.mean_self_ms("route", router=router)
        for counter in KERNEL_COUNTERS:
            metrics[f"kernel.{counter}.{router}"] = _mean(
                span.attributes.get(f"kernel.{counter}", 0) for span in routes
            )

    for name in ("place", "validate", "metrics"):
        metrics[f"{name}_ms"] = tree.mean_self_ms(name)
    # The load pass as a whole (its child is the benchmark's own load_circuit span).
    metrics["load_ms"] = 1000.0 * _mean(span.duration for span in tree.named("load"))
    qasm_loads = tree.named("load_circuit", source="qasm")
    qasm_seconds = sum(span.duration for span in qasm_loads)
    metrics["qasm.gates_per_s"] = (
        sum(span.attributes["gates"] for span in qasm_loads) / qasm_seconds if qasm_seconds else 0.0
    )

    metrics["fingerprint_ms"] = tree.mean_self_ms("fingerprint")
    for tier in ("memory", "disk", "miss"):
        metrics[f"lookup_ms.{tier}"] = tree.mean_self_ms("cache.lookup", tier=tier)
    metrics["store_ms"] = tree.mean_self_ms("cache.store")
    lookups = tree.named("cache.lookup")
    hits = sum(1 for span in lookups if span.attributes.get("tier") in ("memory", "disk"))
    metrics["hit_ratio"] = hits / len(lookups) if lookups else 0.0
    metrics["disk_bytes"] = float(counters.get("bench.disk_bytes", 0))

    metrics["decode_ms"] = tree.mean_self_ms("decode")
    metrics["encode_ms"] = tree.mean_self_ms("encode")
    metrics["payload_kib"] = _mean(span.attributes.get("kib", 0.0) for span in tree.named("encode"))

    # compile_many's own work: the batch span and its per-request wrappers.
    metrics["batch_overhead_ms"] = 1000.0 * _mean(
        self_time[batch.span_id]
        + sum(
            self_time[child.span_id]
            for child in tree.children[batch.span_id]
            if child.name == "request"
        )
        for batch in tree.named("batch")
    )

    handle_times, waits = [], []
    for handle in tree.named("serve.handle"):
        kids = tree.children[handle.span_id]
        jobs = [kid for kid in kids if kid.name == "serve.request"]
        wait = 0.0
        if jobs:
            admitted = max(
                (kid.start + kid.duration for kid in kids if kid.name != "serve.request"),
                default=handle.start,
            )
            wait = max(0.0, jobs[0].start - admitted)
            waits.append(wait)
        handle_times.append(
            self_time[handle.span_id] - wait + sum(self_time[job.span_id] for job in jobs)
        )
    metrics["handle_ms"] = 1000.0 * _mean(handle_times)
    metrics["queue_wait_ms"] = 1000.0 * _mean(waits)
    metrics["http_ms"] = tree.mean_self_ms("http.request")
    metrics["response_encode_ms"] = tree.mean_self_ms("serve.encode_response")
    metrics["response_kib"] = (
        _mean(span.attributes.get("bytes", 0) for span in tree.named("serve.encode_response"))
        / 1024.0
    )
    metrics["rejected"] = float(counters.get("bench.rejected", 0))
    metrics["coalesced"] = float(counters.get("bench.coalesced", 0))

    metrics["unaccounted_share"] = accounting(tree)["unaccounted_share"]
    return metrics


def accounting(tree: SpanTree) -> dict:
    """How much of the caller-side latency the named layers' self times cover."""
    roots = [
        span for span in tree.spans if span.name in REQUEST_ROOTS and span.parent_id is None
    ]
    total = sum(root.duration for root in roots)
    named = sum(
        tree.self_time[span.span_id]
        for root in roots
        for span in tree.subtree(root)
        if span.name not in UNNAMED
    )
    return {
        "requests": len(roots),
        "latency_s": total,
        "named_layers_s": named,
        "unaccounted_share": 1.0 - named / total if total else 0.0,
    }


def summary_rows() -> dict:
    """Per-layer metrics that ``summarize`` prints too: metric -> (section, row).

    These spans have no children, so their self time is their duration;
    ``load_ms`` is the whole load span by definition.  The other per-layer
    metrics are self times of spans with children, or counts, which
    ``summarize`` does not show.
    """
    rows = {f"route_ms.{router}": ("per_router", router) for router in ROUTERS}
    for metric, span in (
        ("place_ms", "place"),
        ("validate_ms", "validate"),
        ("metrics_ms", "metrics"),
        ("load_ms", "load"),
        ("fingerprint_ms", "fingerprint"),
        ("decode_ms", "decode"),
        ("encode_ms", "encode"),
        ("response_encode_ms", "serve.encode_response"),
    ):
        rows[metric] = ("per_phase", span)
    return rows


def parse_summary(text: str) -> dict:
    """The mean column of a ``repro-map trace summarize`` table, as printed."""
    shown: dict[str, dict[str, str]] = {"per_phase": {}, "per_router": {}}
    section = None
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            section = {"per-phase:": "per_phase", "route pass per router:": "per_router"}.get(line)
            continue
        fields = line.split()
        if section and len(fields) == 5 and fields[0] != "name":
            shown[section][fields[0]] = fields[3]
    return shown


def summary_disagreements(metrics: dict, text: str) -> list[str]:
    """Per-layer metrics that the summary ``text`` shows with another mean.

    ``summarize`` prints means in seconds to four places, so a metric (in
    ms) agrees when it is within half a unit of the last place.  A layer
    the run never reached has no row and must read 0.
    """
    shown = parse_summary(text)
    problems = []
    for metric, (section, row) in summary_rows().items():
        value = metrics[metric] / 1000.0
        theirs = shown[section].get(row)
        if theirs is None:
            agrees = value == 0.0
        else:
            agrees = abs(float(theirs) - value) <= 0.5e-4 + 1e-9
        if not agrees:
            problems.append(f"{metric}: record {value:.6f} s, summarize {section} {row} {theirs}")
    return problems
