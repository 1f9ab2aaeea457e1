"""The compile service's pool: forked children that live as long as the service.

Every served miss compiles in one of ``workers`` children forked at the
first miss (``repro.api.batch``'s pool).  These tests pin the pool's
contract from outside: compiles run in the children, a client still reads
EOF when its connection closes, the service forks its pool size plus one
child per timeout, no child outlives the service, and the children, which
inherit the service's open cache database, leave it intact.
"""

import asyncio
import http.client
import json
import multiprocessing
import os
import re
import socket
import sqlite3
import sys
import threading
import time
from contextlib import closing

import pytest

import repro.api.batch as api_batch
from repro.api import CompileRequest, FaultPlan
from repro.api import compile as api_compile
from repro.api.cache import DATABASE_NAME, CompileCache, request_fingerprint
from repro.api.serialize import result_to_payload
from repro.serve import CompileService, ServeConfig, run_server
from tests.serve.test_http_loopback import LoopbackServer
from tests.serve.test_service import make_body, run, with_service

_FORKS = []
os.register_at_fork(after_in_parent=lambda: _FORKS.append(1))


@pytest.fixture
def forks():
    """The number of processes this test has forked so far."""
    before = len(_FORKS)
    return lambda: len(_FORKS) - before


def delayed(body, seconds=30.0) -> FaultPlan:
    """A plan that holds ``body``'s compile for ``seconds``."""
    fingerprint = request_fingerprint(CompileRequest(**body))
    return FaultPlan().inject(fingerprint, "delay", delay_seconds=seconds)


async def post_all(service, bodies):
    return [await service.handle("POST", "/v1/compile", {}, body) for body in bodies]


class TestCompilesRunInTheChildren:
    def test_a_miss_compiles_in_a_child_forked_before_it(self, monkeypatch):
        # Two misses one after another go round both slots, forking both
        # children; a compile in the server process would raise from then on.
        def raising(request):
            raise AssertionError("compiled in the server process")

        async def scenario(service):
            forked = await post_all(service, [make_body(seed=1), make_body(seed=2)])
            monkeypatch.setattr(api_batch, "_compile", raising)
            after = await post_all(service, [make_body(seed=3), make_body(seed=4)])
            batch = await service.handle(
                "POST", "/v1/batch", {}, {"requests": [make_body(seed=5), make_body(seed=6)]}
            )
            return forked + after, batch

        responses, batch = run(with_service(ServeConfig(workers=2), scenario))
        assert [r.status for r in responses] == [200] * 4
        assert [r.body["cached"] for r in responses] == [False] * 4
        assert [slot["ok"] for slot in batch.body["results"]] == [True, True]


def read_response(client, request: bytes) -> tuple[bytes, float]:
    """Send ``request``; return the response and the seconds from its last byte to EOF.

    The socket times out after 1 s, so a connection that a live process
    still holds open fails here instead of hanging.
    """
    client.settimeout(60)
    client.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        data += client.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += client.recv(65536)
    answered = time.monotonic()
    client.settimeout(1.0)
    assert client.recv(65536) == b"", "bytes after the response"
    return head + b"\r\n\r\n" + body, time.monotonic() - answered


def raw_compile(server, body) -> tuple[bytes, float]:
    data = json.dumps(body).encode()
    request = (
        b"POST /v1/compile HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(data)
    ) + data
    with socket.create_connection(("127.0.0.1", server._port), timeout=60) as client:
        return read_response(client, request)


class TestClientsGetEOF:
    """A child drops the sockets it inherits, so a closed connection reads EOF."""

    def test_on_the_miss_that_forks_the_first_child(self):
        server = LoopbackServer(workers=1)
        try:
            response, to_eof = raw_compile(server, make_body(seed=31))
            assert response.startswith(b"HTTP/1.1 200 ")
            assert to_eof < 1.0
        finally:
            server.drain_and_join()

    def test_on_a_miss_answered_by_the_child_that_replaced_a_timed_out_one(self):
        slow = make_body(seed=32)
        server = LoopbackServer(workers=1, timeout=0.5, faults=delayed(slow))
        try:
            timed_out, _ = raw_compile(server, slow)
            assert timed_out.startswith(b"HTTP/1.1 500 ")
            response, to_eof = raw_compile(server, make_body(seed=33))
            assert response.startswith(b"HTTP/1.1 200 ")
            assert to_eof < 1.0
        finally:
            server.drain_and_join()


class TestForks:
    def test_the_service_forks_its_pool_once(self, forks):
        async def scenario(service):
            return await post_all(service, [make_body(seed=seed) for seed in range(40, 46)])

        responses = run(with_service(ServeConfig(workers=2, timeout=30), scenario))
        assert [r.status for r in responses] == [200] * 6
        assert len({r.body["fingerprint"] for r in responses}) == 6
        assert forks() == 2

    def test_a_timed_out_compile_adds_exactly_one_fork(self, forks):
        slow = make_body(seed=51)
        bodies = [make_body(seed=50), slow, make_body(seed=52), make_body(seed=53)]

        async def scenario(service):
            return await post_all(service, bodies)

        config = ServeConfig(workers=1, timeout=0.5, faults=delayed(slow))
        responses = run(with_service(config, scenario))
        assert [r.status for r in responses] == [200, 500, 200, 200]
        assert responses[1].body["error"]["error"] == "Timeout"
        assert forks() == 2


class TestSharedPool:
    def test_more_threads_than_slots_share_the_pool(self, forks):
        # Six threads lease from two slots with a tiny switch interval: a
        # slot leased twice would mix two calls' replies, and a lost slot
        # would hang its callers or fork again.
        requests = [
            CompileRequest(generate="ghz:6", backend="ankaa3", router=router, seed=seed)
            for router in ("greedy", "sabre")
            for seed in range(9)
        ]
        expected = [api_compile(request, cache=False) for request in requests]
        results = [None] * len(requests)
        pool = api_batch._Pool(2)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def run_share(first):
                for index in range(first, len(requests), 6):
                    batch, _ = api_batch._compile_many(
                        [requests[index]], 1, None, "collect", None, 0, 0.0, None, pool=pool
                    )
                    results[index] = batch[0]

            threads = [threading.Thread(target=run_share, args=(first,)) for first in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
            pool.close()
        assert not any(thread.is_alive() for thread in threads)
        assert forks() == 2
        for result, reference in zip(results, expected):
            assert result.ok
            assert result.request is not None
            assert list(result.routed_circuit) == list(reference.routed_circuit)
            assert result.routing.final_layout == reference.routing.final_layout
            assert result.metrics["swaps"] == reference.metrics["swaps"]


class TestLifecycle:
    def test_no_child_outlives_run_server(self):
        # The test keeps the service, so its pipe ends stay open: a child
        # that run_server left running would still be alive below.
        before = set(multiprocessing.active_children())
        service = CompileService(ServeConfig(host="127.0.0.1", port=0, workers=2))
        ready = threading.Event()
        ports, exit_codes = [], []

        def serve():
            def on_ready(port):
                ports.append(port)
                ready.set()

            exit_codes.append(asyncio.run(run_server(service.config, service, on_ready)))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=30)
        try:
            for seed in (60, 61):
                connection = http.client.HTTPConnection("127.0.0.1", ports[0], timeout=60)
                connection.request("POST", "/v1/compile", json.dumps(make_body(seed=seed)))
                assert connection.getresponse().status == 200
                connection.close()
            assert len(set(multiprocessing.active_children()) - before) == 2
        finally:
            connection = http.client.HTTPConnection("127.0.0.1", ports[0], timeout=60)
            connection.request("POST", "/admin/drain")
            connection.getresponse().read()
            connection.close()
            thread.join(timeout=60)
        assert exit_codes == [0]
        assert not set(multiprocessing.active_children()) - before

    def test_stop_kills_a_child_that_is_still_compiling(self):
        slow = make_body(seed=70)
        before = set(multiprocessing.active_children())

        async def scenario():
            service = CompileService(ServeConfig(faults=delayed(slow)))
            await service.start()
            pending = asyncio.ensure_future(service.handle("POST", "/v1/compile", {}, slow))
            deadline = time.monotonic() + 30
            while not set(multiprocessing.active_children()) - before:
                assert time.monotonic() < deadline, "no child forked"
                await asyncio.sleep(0.01)
            started = time.monotonic()
            await service.stop()
            stopped = time.monotonic() - started
            left = set(multiprocessing.active_children()) - before
            pending.cancel()
            return stopped, left

        stopped, left = run(scenario())
        assert stopped < 5.0
        assert not left


class TestTheDatabaseOutlivesTheChildren:
    def test_children_killed_and_replaced_leave_the_cache_database_intact(self, tmp_path, forks):
        # The seeded database makes the first lookup open it, so every child
        # is forked holding the service's open connection.
        seeded = make_body(seed=90)
        CompileCache(directory=tmp_path).put(api_compile(CompileRequest(**seeded), cache=False))
        slow = make_body(seed=92)
        bodies = [make_body(seed=91), slow, *(make_body(seed=seed) for seed in (93, 94, 95))]

        async def scenario(service):
            return await post_all(service, [seeded, *bodies])

        config = ServeConfig(workers=2, timeout=0.5, faults=delayed(slow), cache_dir=str(tmp_path))
        responses = run(with_service(config, scenario))
        assert [r.status for r in responses] == [200, 200, 500, 200, 200, 200]
        assert responses[0].body["cached"] is True
        assert forks() == 3  # two slots, and one replacement for the timed-out child
        with closing(sqlite3.connect(tmp_path / DATABASE_NAME)) as db:
            assert db.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        fresh = CompileCache(max_memory_entries=0, directory=tmp_path)
        served = [(body, r) for body, r in zip([seeded, *bodies], responses) if r.status == 200]
        for body, response in served:
            request = CompileRequest(**body)
            hit = fresh.lookup(request_fingerprint(request), request)
            assert hit is not None
            assert result_to_payload(hit) == response.body["result"]
        assert fresh.stats["disk_hits"] == len(served) == 5
