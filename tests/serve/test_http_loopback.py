"""Loopback integration tests: the real HTTP server over 127.0.0.1.

One server per test class, bound to an ephemeral port inside a background
thread running :func:`repro.serve.serve_forever`.  These prove the four
service acceptance properties end to end, over actual sockets:

(a) a served ``POST /v1/compile`` response round-trips through
    ``api/serialize.py`` bit-for-bit identical to a direct ``compile()``
    for three different routers;
(b) N concurrent identical requests perform exactly one pipeline execution
    (the coalescing counter in ``/metrics`` proves it);
(c) a full queue answers 429 with a ``Retry-After`` header;
(d) ``POST /admin/drain`` finishes in-flight work, rejects new work, and
    the server exits with code 0.
"""

import http.client
import json
import socket
import threading
import time

import pytest

import repro.serve.server as serve_server
from repro.api import CompileRequest, FaultPlan
from repro.api import compile as api_compile
from repro.api.cache import request_fingerprint
from repro.api.serialize import result_from_payload, result_to_payload
from repro.serve import ServeConfig, serve_forever

ROUTERS = ("greedy", "sabre", "lightsabre")


class LoopbackServer:
    """A serve_forever() daemon on an ephemeral port, owned by a thread."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("host", "127.0.0.1")
        config_kwargs.setdefault("port", 0)  # ephemeral
        self.config = ServeConfig(**config_kwargs)
        self.exit_code = None
        self._ready = threading.Event()
        self._port = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server did not start within 30s")

    def _run(self):
        def on_ready(port):
            self._port = port
            self._ready.set()

        try:
            self.exit_code = serve_forever(self.config, ready=on_ready)
        finally:
            self._ready.set()  # never leave the main thread waiting

    def request(self, method, path, body=None, timeout=60):
        connection = http.client.HTTPConnection("127.0.0.1", self._port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded = json.loads(raw) if raw else None
            return response.status, decoded, dict(response.getheaders())
        finally:
            connection.close()

    def drain_and_join(self, timeout=60):
        status, body, _ = self.request("POST", "/admin/drain")
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "server thread did not exit after drain"
        return status, body


def compile_body(router="greedy", seed=0, generate="ghz:6", **extra):
    body = {"generate": generate, "backend": "ankaa3", "router": router, "seed": seed}
    body.update(extra)
    return body


def normalize(result_payload):
    payload = {k: v for k, v in result_payload.items() if k != "pass_timings"}
    payload["routing"] = {
        k: v for k, v in result_payload["routing"].items() if k != "runtime_seconds"
    }
    payload["metrics"] = {
        k: v for k, v in result_payload["metrics"].items() if k != "runtime_seconds"
    }
    return payload


@pytest.fixture(scope="module")
def server():
    server = LoopbackServer(workers=2, queue_size=32)
    yield server
    if server.thread.is_alive():
        server.drain_and_join()


class TestServedParity:
    """(a) served responses == direct compile(), bit for bit, >=3 routers."""

    @pytest.mark.parametrize("router", ROUTERS)
    def test_served_response_round_trips_bit_identical(self, server, router):
        status, body, _ = server.request(
            "POST", "/v1/compile", compile_body(router=router)
        )
        assert status == 200
        assert body["ok"] is True
        request = CompileRequest(
            generate="ghz:6", backend="ankaa3", router=router, seed=0
        )
        assert body["fingerprint"] == request_fingerprint(request)
        direct = api_compile(request, cache=False)
        assert normalize(body["result"]) == normalize(result_to_payload(direct))
        # The served payload round-trips through the result codec: rebuilding
        # a CompileResult from the wire body reproduces the direct result.
        rebuilt = result_from_payload(body["result"], request)
        assert rebuilt.swaps_added == direct.swaps_added
        assert rebuilt.routed_depth == direct.routed_depth
        assert rebuilt.initial_layout == direct.initial_layout
        assert result_to_payload(rebuilt)["routing"]["routed_circuit"] == (
            result_to_payload(direct)["routing"]["routed_circuit"]
        )

    def test_healthz_and_metrics_respond(self, server):
        status, health, _ = server.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        status, metrics, _ = server.request("GET", "/metrics")
        assert status == 200
        assert "counters" in metrics and "cache" in metrics

    @pytest.mark.parametrize("length", ["-5", "abc", "1_0"])
    def test_bad_content_length_is_a_400(self, server, length):
        connection = http.client.HTTPConnection("127.0.0.1", server._port, timeout=60)
        try:
            connection.putrequest("POST", "/v1/compile")
            connection.putheader("Content-Length", length)
            connection.endheaders(json.dumps(compile_body()).encode())
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]["message"]

    @pytest.mark.parametrize(
        "path, headers",
        [("/" + "a" * 70_000, {}), ("/healthz", {"X-Long": "a" * 70_000})],
        ids=["request-line", "header-line"],
    )
    def test_over_long_line_is_a_400(self, server, path, headers):
        connection = http.client.HTTPConnection("127.0.0.1", server._port, timeout=60)
        try:
            connection.putrequest("GET", path)
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "too long" in body["error"]["message"]

    @pytest.mark.parametrize("count, status", [(100, 200), (101, 400)])
    def test_header_lines_are_bounded(self, server, count, status):
        connection = http.client.HTTPConnection("127.0.0.1", server._port, timeout=60)
        try:
            connection.putrequest("GET", "/healthz", skip_host=True, skip_accept_encoding=True)
            for index in range(count):
                connection.putheader(f"X-Header-{index}", "v")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == status
        if status == 400:
            assert "100 header lines" in body["error"]["message"]

    @staticmethod
    def _send_then_read(server, request):
        with socket.create_connection(("127.0.0.1", server._port), timeout=60) as client:
            client.sendall(request)
            chunks = []
            while chunk := client.recv(65536):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return head, json.loads(body)

    def test_20000_header_lines_read_their_400(self, server):
        # 20,000 header lines (about 370 KB): closing on them unread resets
        # the connection under the 400.
        request = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-Header-%d: v\r\n" % index for index in range(20_000)
        ) + b"\r\n"
        head, body = self._send_then_read(server, request)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "100 header lines" in body["error"]["message"]

    def test_a_rejected_request_is_read_to_its_end_within_the_byte_bound(
        self, server, monkeypatch
    ):
        # 16 MiB more than loopback's socket buffers hold: a server that
        # stops reading makes the client's send fail before it reads the 400.
        monkeypatch.setattr(serve_server, "_DISCARD_BYTES", 64 * 1024 * 1024)
        request = b"GET /healthz HTTP/1.1\r\n" + b"X-Header: v\r\n" * 101
        head, body = self._send_then_read(server, request + b"x" * (16 * 1024 * 1024))
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "100 header lines" in body["error"]["message"]

    @pytest.mark.parametrize("pace", ["flood", "trickle"])
    def test_a_client_that_keeps_sending_is_closed_within_the_bound(
        self, server, monkeypatch, pace
    ):
        # A flood passes the byte bound at once; a trickle never reaches it,
        # so the time bound (shortened here) closes the connection.  Once the
        # server has closed, the client's next sends fail.
        if pace == "trickle":
            monkeypatch.setattr(serve_server, "_DISCARD_SECONDS", 0.5)
        bound = serve_server._DISCARD_SECONDS
        chunk = b"X-Filler: v\r\n" * (1 if pace == "trickle" else 5000)
        stop = threading.Event()
        closed = []

        def send():
            try:
                client.sendall(b"GET /healthz HTTP/1.1\r\n" + b"X-Header: v\r\n" * 101)
                while not stop.is_set():
                    client.sendall(chunk)
                    if pace == "trickle":
                        time.sleep(0.01)
            except OSError:
                closed.append(time.monotonic())

        with socket.create_connection(("127.0.0.1", server._port), timeout=30) as client:
            sender = threading.Thread(target=send)
            started = time.monotonic()
            sender.start()
            sender.join(timeout=bound + 10.0)
            stop.set()
            sender.join(timeout=30)
        assert not sender.is_alive()
        assert closed, "the server kept reading past its bounds"
        assert closed[0] - started < bound + 2.0

    def test_unknown_path_is_404_over_http(self, server):
        status, body, _ = server.request("GET", "/nope")
        assert status == 404
        assert body["ok"] is False


class TestCoalescingOverHTTP:
    """(b) N concurrent identical requests -> one execution."""

    def test_concurrent_identical_requests_execute_once(self):
        request = CompileRequest(
            generate="qft:6", backend="ankaa3", router="sabre", seed=3
        )
        # Hold the one execution in flight long enough for all N sockets to
        # land in admission; coalescing does the rest.
        plan = FaultPlan().inject(
            request_fingerprint(request), "delay", delay_seconds=1.0
        )
        server = LoopbackServer(workers=2, queue_size=32, faults=plan)
        try:
            n = 4
            results = [None] * n
            body = compile_body(router="sabre", seed=3, generate="qft:6")

            def hit(slot):
                results[slot] = server.request("POST", "/v1/compile", body)

            threads = [
                threading.Thread(target=hit, args=(slot,)) for slot in range(n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert all(result is not None for result in results)
            assert [status for status, _, _ in results] == [200] * n
            payloads = [body["result"] for _, body, _ in results]
            assert all(payload == payloads[0] for payload in payloads[1:])

            _, metrics, _ = server.request("GET", "/metrics")
            assert metrics["counters"]["executions"] == 1
            assert metrics["counters"]["coalesced"] == n - 1
        finally:
            server.drain_and_join()
            assert server.exit_code == 0


class TestBackpressureOverHTTP:
    """(c) full queue -> 429 + Retry-After."""

    def test_full_queue_returns_429_with_retry_after(self):
        # One worker, queue of one: a delay fault keeps request A executing,
        # B fills the queue, C must bounce with 429 + Retry-After.
        plan = FaultPlan().inject("*", "delay", delay_seconds=2.0)
        server = LoopbackServer(workers=1, queue_size=1, faults=plan)
        try:
            responses = {}

            def submit(name, seed):
                responses[name] = server.request(
                    "POST", "/v1/compile", compile_body(seed=seed), timeout=120
                )

            first = threading.Thread(target=submit, args=("a", 0))
            second = threading.Thread(target=submit, args=("b", 1))
            first.start()
            time.sleep(0.4)  # A is executing (dequeued), queue is empty
            second.start()
            time.sleep(0.4)  # B occupies the single queue slot
            status, body, headers = server.request(
                "POST", "/v1/compile", compile_body(seed=2)
            )
            assert status == 429
            assert body["ok"] is False
            assert body["error"]["error"] == "Backpressure"
            retry_after = headers.get("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            first.join(timeout=120)
            second.join(timeout=120)
            assert responses["a"][0] == 200
            assert responses["b"][0] == 200
        finally:
            server.drain_and_join()
            assert server.exit_code == 0


class TestDrainOverHTTP:
    """(d) drain finishes in-flight work, rejects new work, exits 0."""

    def test_drain_completes_inflight_rejects_new_and_exits_zero(self):
        plan = FaultPlan().inject("*", "delay", delay_seconds=1.0)
        server = LoopbackServer(workers=1, queue_size=8, faults=plan)
        inflight = {}

        def submit():
            inflight["response"] = server.request(
                "POST", "/v1/compile", compile_body(seed=11), timeout=120
            )

        worker = threading.Thread(target=submit)
        worker.start()
        time.sleep(0.3)  # the request is in flight before we drain

        status, body = server.drain_and_join()
        assert status == 202
        assert body["draining"] is True

        worker.join(timeout=120)
        # In-flight work was finished, not dropped.
        assert inflight["response"][0] == 200
        assert inflight["response"][1]["ok"] is True
        # The server loop exited cleanly.
        assert server.exit_code == 0

    def test_new_work_is_rejected_while_draining(self):
        plan = FaultPlan().inject("*", "delay", delay_seconds=1.5)
        server = LoopbackServer(workers=1, queue_size=8, faults=plan)
        inflight = {}

        def submit():
            inflight["response"] = server.request(
                "POST", "/v1/compile", compile_body(seed=21), timeout=120
            )

        worker = threading.Thread(target=submit)
        worker.start()
        time.sleep(0.3)
        status, _, _ = server.request("POST", "/admin/drain")
        assert status == 202
        status, body, _ = server.request("POST", "/v1/compile", compile_body(seed=22))
        assert status == 503
        assert body["ok"] is False
        worker.join(timeout=120)
        assert inflight["response"][0] == 200
        server.thread.join(timeout=60)
        assert not server.thread.is_alive()
        assert server.exit_code == 0
