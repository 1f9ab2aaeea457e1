"""Service observability: trace ids on responses, Prometheus text, trace sink.

Handler-level like ``test_service.py``: every test drives
:meth:`CompileService.handle` inside a fresh event loop, no sockets.
"""

import asyncio
import json

from repro.obs.export import read_trace
from repro.serve import CompileService, ServeConfig
from repro.serve.server import Response, _encode_response


def run(coro):
    return asyncio.run(coro)


def make_body(seed=0, router="greedy", generate="ghz:6", **extra):
    body = {"generate": generate, "backend": "ankaa3", "router": router, "seed": seed}
    body.update(extra)
    return body


async def with_service(config, scenario):
    service = CompileService(config)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop()


class TestTraceIds:
    def test_every_response_carries_a_trace_id(self):
        async def scenario(service):
            compile_response = await service.handle("POST", "/v1/compile", {}, make_body())
            health = await service.handle("GET", "/healthz", {}, None)
            missing = await service.handle("GET", "/nope", {}, None)
            return compile_response, health, missing

        compile_response, health, missing = run(with_service(ServeConfig(), scenario))
        for response in (compile_response, health, missing):
            assert response.headers["X-Trace-Id"]
            assert response.body["trace_id"] == response.headers["X-Trace-Id"]

    def test_trace_ids_are_unique_per_request(self):
        async def scenario(service):
            first = await service.handle("GET", "/healthz", {}, None)
            second = await service.handle("GET", "/healthz", {}, None)
            return first, second

        first, second = run(with_service(ServeConfig(), scenario))
        assert first.body["trace_id"] != second.body["trace_id"]


class TestPrometheusEndpoint:
    def test_prometheus_format_returns_text_exposition(self):
        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body())
            return await service.handle(
                "GET", "/metrics", {"format": "prometheus"}, None
            )

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = response.text
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_compile_requests_total counter" in text
        assert "repro_queue_depth 0" in text
        # at least one latency histogram made it through
        assert 'le="+Inf"' in text

    def test_default_metrics_endpoint_stays_json(self):
        async def scenario(service):
            return await service.handle("GET", "/metrics", {}, None)

        response = run(with_service(ServeConfig(), scenario))
        assert response.text is None
        assert "counters" in response.body
        assert "trace_id" in response.body

    def test_text_responses_encode_on_the_wire(self):
        wire = _encode_response(
            Response(
                200,
                {},
                headers={"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                text="repro_up 1\n",
            )
        )
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: text/plain; version=0.0.4; charset=utf-8" in head
        assert body == b"repro_up 1\n"
        assert b"Content-Length: 11" in head


class TestTraceSink:
    def test_served_jobs_append_trace_fragments(self, tmp_path):
        sink = tmp_path / "serve.trace.jsonl"

        async def scenario(service):
            first = await service.handle("POST", "/v1/compile", {}, make_body(seed=0))
            second = await service.handle("POST", "/v1/compile", {}, make_body(seed=1))
            return first, second

        first, second = run(
            with_service(ServeConfig(trace_out=str(sink)), scenario)
        )
        metas, spans, counters = read_trace(sink)
        assert all(meta["tool"] == "repro-serve" for meta in metas)
        served = [span for span in spans if span.name == "serve.request"]
        assert len(served) == 2
        assert {span.attributes["status"] for span in served} == {200}
        # the sink fragment joins the id the client saw
        sink_ids = {span.trace_id for span in served}
        assert sink_ids == {first.body["trace_id"], second.body["trace_id"]}
        # the full pipeline recorded underneath the request span
        assert any(span.name == "route" for span in spans)
        assert counters.get("cache.stores", 0) == 2

    def test_untraced_service_writes_no_sink(self, tmp_path):
        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        assert list(tmp_path.iterdir()) == []

    def test_sink_lines_are_json(self, tmp_path):
        sink = tmp_path / "serve.trace.jsonl"

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        run(with_service(ServeConfig(trace_out=str(sink)), scenario))
        for line in sink.read_text().splitlines():
            json.loads(line)
