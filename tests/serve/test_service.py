"""Handler-level tests for the compile service core (no sockets).

Every test drives :meth:`CompileService.handle` directly inside a fresh
event loop -- the socket-free entry point the HTTP front-end also calls --
so the whole service contract (priority order, coalescing, caching, jobs,
drain, injected faults) is exercised without binding a single port.  The
one loopback smoke test lives in ``test_http_loopback.py``.
"""

import asyncio
import json
import threading
import time

import pytest

import repro.serve.jobs as serve_jobs
from repro.api import CompileRequest, compile_many
from repro.api import compile as api_compile
from repro.api.cache import CompileCache, request_fingerprint
from repro.api.serialize import request_to_payload, result_to_payload
from repro.benchgen.qasmbench import ghz_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.serve import CompileService, ServeConfig


def run(coro):
    return asyncio.run(coro)


def make_body(seed=0, router="greedy", generate="ghz:6", **extra):
    body = {"generate": generate, "backend": "ankaa3", "router": router, "seed": seed}
    body.update(extra)
    return body


def normalize(result_payload: dict) -> dict:
    """A result payload minus its wall-clock fields.

    Pass timings and the recorded routing runtime are the only
    non-deterministic payload fields; everything else -- the routed gate table,
    layouts, swaps, depth, metrics -- must match bit for bit.
    """
    payload = {k: v for k, v in result_payload.items() if k != "pass_timings"}
    payload["routing"] = {
        k: v for k, v in result_payload["routing"].items() if k != "runtime_seconds"
    }
    payload["metrics"] = {
        k: v for k, v in result_payload["metrics"].items() if k != "runtime_seconds"
    }
    return payload


async def with_service(config, scenario, cache=None):
    service = CompileService(config, cache=cache)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop()


#: The seed whose compile a :class:`HeldService` holds in its worker thread.
HELD_SEED = 0


class HeldService(CompileService):
    """A service that holds the compile of ``HELD_SEED`` until released.

    ``seeds`` records the order in which jobs reach the worker thread: a
    compile as its seed, a batch as the tuple of its seeds.
    """

    def __init__(self, config):
        super().__init__(config)
        self.seeds = []
        self.holding = threading.Event()
        self.release = threading.Event()

    def _run_compile(self, request, fingerprint):
        self.seeds.append(request.seed)
        if request.seed == HELD_SEED:
            self.holding.set()
            self.release.wait(timeout=60)
        return super()._run_compile(request, fingerprint)

    def _run_batch(self, requests):
        self.seeds.append(tuple(request.seed for request in requests))
        return super()._run_batch(requests)


async def with_held_service(config, scenario):
    service = HeldService(config)
    await service.start()
    try:
        return await scenario(service)
    finally:
        service.release.set()
        await service.stop()


async def until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached")
        await asyncio.sleep(0.005)


def batch_body(seeds, **extra):
    return {"requests": [make_body(seed=seed) for seed in seeds], **extra}


def post(service, body):
    """Post ``body`` to ``/v1/batch`` if it is a batch, else to ``/v1/compile``."""
    path = "/v1/batch" if "requests" in body else "/v1/compile"
    return asyncio.ensure_future(service.handle("POST", path, {}, body))


async def queue_behind_held(service, bodies):
    """Start the held compile, then queue each body behind it."""
    held = post(service, make_body(seed=HELD_SEED))
    await until(service.holding.is_set)
    waiting = [post(service, body) for body in bodies]
    await until(lambda: service.queue.qsize() == len(bodies))
    return held, waiting


class TestCompileEndpoint:
    def test_served_result_is_bit_identical_to_direct_compile(self):
        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)
        direct = result_to_payload(api_compile(request, cache=False))
        assert normalize(response.body["result"]) == normalize(direct)
        assert response.body["fingerprint"] == request_fingerprint(request)

    def test_second_identical_request_is_a_cache_hit_with_identical_payload(self):
        async def scenario(service):
            first = await service.handle("POST", "/v1/compile", {}, make_body())
            second = await service.handle("POST", "/v1/compile", {}, make_body())
            return first, second, service.metrics.counter("cache_hits")

        first, second, hits = run(with_service(ServeConfig(), scenario))
        assert first.body["cached"] is False
        assert second.body["cached"] is True
        assert hits == 1
        # A cache hit replays the stored payload: identical including timings.
        assert second.body["result"] == first.body["result"]

    def test_another_spelling_of_a_served_spec_is_a_served_hit(self):
        async def scenario(service):
            first = await service.handle("POST", "/v1/compile", {}, make_body(generate="ghz:6"))
            second = await service.handle("POST", "/v1/compile", {}, make_body(generate="GHZ: 06"))
            return first, second

        first, second = run(with_service(ServeConfig(), scenario))
        assert first.body["cached"] is False
        assert second.body["cached"] is True
        assert second.body["fingerprint"] == first.body["fingerprint"]
        assert second.body["result"] == first.body["result"]

    def test_a_served_miss_is_looked_up_once(self):
        """Admission's lookup is the only one: the cache agrees with the service."""

        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body())
            await service.handle("POST", "/v1/compile", {}, make_body())
            return service.cache.stats, service.cache.info(), await service.metrics_payload()

        stats, info, metrics = run(with_service(ServeConfig(), scenario))
        assert stats["misses"] == 1
        assert stats["memory_hits"] == 1
        assert stats["stores"] == 1
        assert info["hit_rate"] == 0.5
        assert metrics["cache"]["hit_rate"] == 0.5

    def test_a_served_miss_is_encoded_once(self, monkeypatch):
        """The response carries the payload the cache store encoded."""
        import repro.api.cache as api_cache
        import repro.serve.server as serve_server

        encoded = []

        def counting(result):
            encoded.append(result)
            return result_to_payload(result)

        monkeypatch.setattr(api_cache, "result_to_payload", counting)
        monkeypatch.setattr(serve_server, "result_to_payload", counting)

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(), scenario))
        assert response.body["cached"] is False
        assert len(encoded) == 1
        assert response.body["result"] == result_to_payload(encoded[0])

    def test_a_served_hit_sends_the_stored_table_without_decoding_or_encoding(
        self, codec_calls
    ):
        async def scenario(service):
            miss = await service.handle("POST", "/v1/compile", {}, make_body())
            counts = codec_calls.counts()
            hit = await service.handle("POST", "/v1/compile", {}, make_body())
            return miss, counts, hit

        miss, (decodes, encodes, copies), hit = run(with_service(ServeConfig(), scenario))
        assert (miss.body["cached"], hit.body["cached"]) == (False, True)
        assert codec_calls.counts() == (decodes, encodes, copies + 1)
        assert json.dumps(hit.body["result"], sort_keys=True) == json.dumps(
            miss.body["result"], sort_keys=True
        )

    def test_a_served_miss_makes_no_encode_and_one_table_copy(self, codec_calls):
        """The child encodes; the server process copies the table once, to store it."""

        async def scenario(service):
            response = await service.handle("POST", "/v1/compile", {}, make_body())
            return response, codec_calls.counts()

        response, counts = run(with_service(ServeConfig(), scenario))
        assert response.body["cached"] is False
        assert counts == (0, 0, 1)
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)
        direct = result_to_payload(api_compile(request, cache=False))
        assert normalize(response.body["result"]) == normalize(direct)

    def test_a_circuit_wider_than_its_backend_is_a_400(self):
        body = {"generate": "ghz:100", "backend": "ankaa3", "router": "sabre"}

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 400
        assert response.body["error"]["phase"] == "load"
        assert "82 physical qubits" in response.body["error"]["message"]

    def test_a_cache_whose_store_returns_nothing_still_answers(self):
        """A CompileCache subclass may override store() without returning the payload."""

        class QuietCache(CompileCache):
            def store(self, fingerprint, result):
                super().store(fingerprint, result)

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(), scenario, cache=QuietCache()))
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)
        direct = result_to_payload(api_compile(request, cache=False))
        assert normalize(response.body["result"]) == normalize(direct)

    def test_malformed_body_is_a_structured_400(self):
        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, {"router": "nope"})

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 400
        assert response.body["ok"] is False
        assert "message" in response.body["error"]

    def test_non_finite_seed_is_a_structured_400(self):
        body = json.loads(
            '{"generate": "ghz:6", "backend": "sherbrooke", "router": "greedy", "seed": 1e400}'
        )

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 400
        assert "seed must be an integer" in response.body["error"]["message"]

    def test_malformed_circuit_table_is_a_structured_400(self):
        body = request_to_payload(
            CompileRequest(circuit=ghz_circuit(4), backend="ankaa3", router="greedy")
        )
        body["circuit"]["ops"] = body["circuit"]["ops"].rsplit(" ", 1)[0]

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 400
        assert "truncated" in response.body["error"]["message"]

    def test_wide_gate_in_circuit_table_is_a_structured_400(self):
        circuit = QuantumCircuit(5)
        circuit.append(Gate("ccx", (0, 2, 4)))
        circuit.cx(0, 4)
        body = request_to_payload(
            CompileRequest(circuit=circuit, backend="sherbrooke", router="qmap")
        )

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 400
        assert response.body["error"]["phase"] == "load"
        assert "more than two qubits" in response.body["error"]["message"]

    def test_unknown_path_is_404_and_wrong_method_is_405(self):
        async def scenario(service):
            missing = await service.handle("GET", "/v2/compile", {}, None)
            wrong = await service.handle("GET", "/v1/compile", {}, None)
            return missing, wrong

        missing, wrong = run(with_service(ServeConfig(), scenario))
        assert missing.status == 404
        assert wrong.status == 405


class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self, faults):
        # A delay fault keeps the first request in flight long enough for
        # three identical siblings to arrive: all four must resolve from ONE
        # pipeline execution with byte-identical payloads.
        request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=0)
        faults.inject(request_fingerprint(request), "delay", delay_seconds=0.2)

        async def scenario(service):
            calls = [
                service.handle("POST", "/v1/compile", {}, make_body())
                for _ in range(4)
            ]
            responses = await asyncio.gather(*calls)
            return responses, await service.metrics_payload()

        responses, metrics = run(
            with_service(ServeConfig(workers=2, queue_size=16), scenario)
        )
        assert [r.status for r in responses] == [200] * 4
        payloads = [r.body["result"] for r in responses]
        assert all(p == payloads[0] for p in payloads[1:])
        assert metrics["counters"]["executions"] == 1
        assert metrics["counters"]["coalesced"] == 3
        assert metrics["counters"].get("cache_hits", 0) == 0

    def test_different_requests_do_not_coalesce(self):
        async def scenario(service):
            responses = await asyncio.gather(
                service.handle("POST", "/v1/compile", {}, make_body(seed=0)),
                service.handle("POST", "/v1/compile", {}, make_body(seed=1)),
            )
            return responses, service.metrics.counter("coalesced")

        responses, coalesced = run(
            with_service(ServeConfig(workers=2, queue_size=16), scenario)
        )
        assert [r.status for r in responses] == [200, 200]
        assert coalesced == 0


class TestPriorityOrder:
    def test_lower_priority_runs_first_and_ties_run_in_arrival_order(self):
        async def scenario(service):
            held, waiting = await queue_behind_held(
                service,
                [
                    make_body(seed=seed, priority=priority)
                    for seed, priority in ((1, 5), (2, 0), (3, 5), (4, -1))
                ],
            )
            service.release.set()
            responses = await asyncio.wait_for(asyncio.gather(held, *waiting), timeout=60)
            return responses, service.seeds

        responses, seeds = run(with_held_service(ServeConfig(workers=1), scenario))
        assert [r.status for r in responses] == [200] * 5
        assert seeds == [HELD_SEED, 4, 2, 1, 3]

    def test_equal_priorities_run_in_arrival_order(self):
        async def scenario(service):
            held, waiting = await queue_behind_held(
                service, [make_body(seed=seed) for seed in (3, 1, 4, 2)]
            )
            service.release.set()
            responses = await asyncio.wait_for(asyncio.gather(held, *waiting), timeout=60)
            return responses, service.seeds

        responses, seeds = run(with_held_service(ServeConfig(workers=1), scenario))
        assert [r.status for r in responses] == [200] * 5
        assert seeds == [HELD_SEED, 3, 1, 4, 2]

    def test_a_batch_takes_its_place_in_the_same_order(self):
        # A batch is one queue entry with the batch-wide priority.
        async def scenario(service):
            held, waiting = await queue_behind_held(
                service,
                [
                    make_body(seed=1),
                    batch_body((2, 3), priority=-1),
                    make_body(seed=4, priority=-1),
                    batch_body((5, 6)),
                ],
            )
            service.release.set()
            responses = await asyncio.wait_for(asyncio.gather(held, *waiting), timeout=60)
            return responses, service.seeds

        responses, seeds = run(with_held_service(ServeConfig(workers=1), scenario))
        assert [r.status for r in responses] == [200] * 5
        assert seeds == [HELD_SEED, (2, 3), 4, 1, (5, 6)]


class TestWorkers:
    def test_each_worker_takes_its_own_job(self):
        # Two held compiles that differ only in their router: with two
        # workers both run at once, and nothing is left on the queue.
        async def scenario(service):
            held = [
                post(service, make_body(seed=HELD_SEED, router=router))
                for router in ("greedy", "sabre")
            ]
            await until(lambda: service.jobs.running_count() == 2)
            depth = service.queue.qsize()
            service.release.set()
            responses = await asyncio.wait_for(asyncio.gather(*held), timeout=60)
            return depth, responses, service.seeds

        depth, responses, seeds = run(with_held_service(ServeConfig(workers=2), scenario))
        assert depth == 0
        assert [r.status for r in responses] == [200, 200]
        assert seeds == [HELD_SEED, HELD_SEED]


class TestBackpressure:
    """A full queue answers 429 with ``Retry-After`` and runs nothing more."""

    @pytest.mark.parametrize(
        "body", [make_body(seed=2), batch_body((2, 3))], ids=["compile", "batch"]
    )
    def test_full_queue_is_a_429_with_retry_after(self, body):
        async def scenario(service):
            held, waiting = await queue_behind_held(service, [make_body(seed=1)])
            rejected = await post(service, body)
            depth = service.queue.qsize()
            service.release.set()
            responses = await asyncio.wait_for(asyncio.gather(held, *waiting), timeout=60)
            return rejected, depth, responses, service

        rejected, depth, responses, service = run(
            with_held_service(ServeConfig(workers=1, queue_size=1), scenario)
        )
        assert rejected.status == 429
        assert rejected.body["ok"] is False
        assert rejected.body["error"]["error"] == "Backpressure"
        assert "queue full (1 entries)" in rejected.body["error"]["message"]
        assert int(rejected.headers["Retry-After"]) >= 1
        assert depth == 1
        assert [r.status for r in responses] == [200, 200]
        assert service.seeds == [HELD_SEED, 1]
        assert service.metrics.counter("rejected_busy") == 1
        assert service.jobs.counts()["failed"] == 1

    def test_a_rejected_request_is_admitted_once_the_queue_has_room(self):
        async def scenario(service):
            held, waiting = await queue_behind_held(service, [make_body(seed=1)])
            rejected = await post(service, make_body(seed=2))
            service.release.set()
            await asyncio.wait_for(asyncio.gather(held, *waiting), timeout=60)
            retried = await asyncio.wait_for(post(service, make_body(seed=2)), timeout=60)
            return rejected, retried, service.seeds

        rejected, retried, seeds = run(
            with_held_service(ServeConfig(workers=1, queue_size=1), scenario)
        )
        assert rejected.status == 429
        assert retried.status == 200
        assert retried.body["cached"] is False
        assert seeds == [HELD_SEED, 1, 2]


class TestJobs:
    def test_async_job_lifecycle(self):
        async def scenario(service):
            accepted = await service.handle(
                "POST", "/v1/compile", {"async": "1"}, make_body()
            )
            assert accepted.status == 202
            job_id = accepted.body["job"]["id"]
            for _ in range(500):
                polled = await service.handle("GET", f"/v1/jobs/{job_id}", {}, None)
                if polled.body["job"]["state"] in ("done", "failed"):
                    return accepted, polled
                await asyncio.sleep(0.01)
            raise AssertionError("job never finished")

        accepted, polled = run(with_service(ServeConfig(), scenario))
        assert accepted.body["job"]["state"] in ("queued", "running")
        assert polled.body["job"]["state"] == "done"
        assert polled.body["job"]["response"]["ok"] is True
        assert polled.body["job"]["response"]["result"]["metrics"]["router"] == "greedy"

    def test_unknown_job_is_404(self):
        async def scenario(service):
            return await service.handle("GET", "/v1/jobs/job-999999", {}, None)

        assert run(with_service(ServeConfig(), scenario)).status == 404

    def test_job_ids_are_sequential_and_deterministic(self):
        async def scenario(service):
            a = await service.handle("POST", "/v1/compile", {"async": "1"}, make_body(seed=5))
            b = await service.handle("POST", "/v1/compile", {"async": "1"}, make_body(seed=6))
            return a.body["job"]["id"], b.body["job"]["id"]

        assert run(with_service(ServeConfig(), scenario)) == ("job-000001", "job-000002")


class TestJobRetention:
    def test_finished_jobs_beyond_the_bound_are_evicted_oldest_first(self, monkeypatch):
        monkeypatch.setattr(serve_jobs, "FINISHED_CAPACITY", 2)

        async def scenario(service):
            async def submit(seed):
                response = await service.handle(
                    "POST", "/v1/compile", {"async": "1"}, make_body(seed=seed)
                )
                return response.body["job"]["id"] if response.status == 202 else response.status

            async def state(job_id):
                response = await service.handle("GET", f"/v1/jobs/{job_id}", {}, None)
                return response.body["job"]["state"] if response.status == 200 else response.status

            async def settle(job_id):
                while await state(job_id) not in ("done", "failed"):
                    await asyncio.sleep(0.005)

            first = await submit(1)
            await settle(first)
            second = await submit(2)
            await settle(second)
            running = await submit(HELD_SEED)
            await until(service.holding.is_set)
            queued = await submit(3)
            # The queue is full: the 429's job finishes at admission and
            # pushes the oldest finished job out.
            rejected = await submit(4)
            during = [await state(job_id) for job_id in (first, second, running, queued)]
            service.release.set()
            await settle(queued)
            after = [await state(job_id) for job_id in (second, running, queued)]
            return rejected, during, after

        rejected, during, after = run(
            with_held_service(ServeConfig(workers=1, queue_size=1), scenario)
        )
        assert rejected == 429
        assert during == [404, "done", "running", "queued"]
        assert after == [404, "done", "done"]


class TestBatchEndpoint:
    def test_batch_matches_direct_compile_many(self):
        body = {"requests": [make_body(seed=s) for s in range(3)]}

        async def scenario(service):
            return await service.handle("POST", "/v1/batch", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        assert response.body["ok"] is True
        requests = [
            CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=s)
            for s in range(3)
        ]
        direct = compile_many(requests, cache=False)
        for slot, expected in zip(response.body["results"], direct.results):
            assert normalize(slot["result"]) == normalize(result_to_payload(expected))

    def test_a_batch_of_hits_sends_the_stored_tables_without_decoding_or_encoding(
        self, codec_calls
    ):
        body = {"requests": [make_body(seed=s) for s in range(3)]}

        async def scenario(service):
            misses = await service.handle("POST", "/v1/batch", {}, body)
            counts = codec_calls.counts()
            hits = await service.handle("POST", "/v1/batch", {}, body)
            return misses, counts, hits

        misses, (decodes, encodes, copies), hits = run(with_service(ServeConfig(), scenario))
        assert hits.body["summary"]["cache"] == {"hits": 3, "misses": 0}
        assert codec_calls.counts() == (decodes, encodes, copies + 3)
        assert json.dumps(hits.body["results"], sort_keys=True) == json.dumps(
            misses.body["results"], sort_keys=True
        )

    def test_a_batch_of_misses_makes_no_encode_and_one_table_copy_each(self, codec_calls):
        body = {"requests": [make_body(seed=s) for s in range(3)]}

        async def scenario(service):
            response = await service.handle("POST", "/v1/batch", {}, body)
            return response, codec_calls.counts()

        response, counts = run(with_service(ServeConfig(), scenario))
        assert response.body["summary"]["cache"] == {"hits": 0, "misses": 3}
        assert counts == (0, 0, 3)
        for seed, slot in enumerate(response.body["results"]):
            request = CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=seed)
            direct = result_to_payload(api_compile(request, cache=False))
            assert normalize(slot["result"]) == normalize(direct)

    def test_a_circuit_wider_than_its_backend_fails_its_slot_in_load(self):
        wide = {"generate": "ghz:100", "backend": "ankaa3", "router": "sabre"}
        body = {"requests": [make_body(), wide]}

        async def scenario(service):
            return await service.handle("POST", "/v1/batch", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200
        first, second = response.body["results"]
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["phase"] == "load"

    def test_batch_rejects_malformed_entries_with_400(self):
        async def scenario(service):
            return await service.handle(
                "POST", "/v1/batch", {}, {"requests": [{"router": "nope"}]}
            )

        assert run(with_service(ServeConfig(), scenario)).status == 400


class TestDrain:
    def test_drain_finishes_inflight_rejects_new_and_signals_shutdown(self):
        async def scenario(service):
            pending = asyncio.ensure_future(
                service.handle("POST", "/v1/compile", {}, make_body())
            )
            await asyncio.sleep(0)  # admit the request before draining
            drain = await service.handle("POST", "/admin/drain", {}, None)
            rejected = await service.handle("POST", "/v1/compile", {}, make_body(seed=9))
            finished = await asyncio.wait_for(pending, timeout=30)
            await asyncio.wait_for(service.wait_for_shutdown(), timeout=30)
            health = await service.handle("GET", "/healthz", {}, None)
            return drain, rejected, finished, health

        drain, rejected, finished, health = run(with_service(ServeConfig(), scenario))
        assert drain.status == 202
        assert drain.body["draining"] is True
        assert rejected.status == 503
        assert finished.status == 200  # in-flight work completed, not dropped
        assert health.body["status"] == "draining"

    def test_drain_is_idempotent(self):
        async def scenario(service):
            first = await service.handle("POST", "/admin/drain", {}, None)
            second = await service.handle("POST", "/admin/drain", {}, None)
            await asyncio.wait_for(service.wait_for_shutdown(), timeout=10)
            return first, second

        first, second = run(with_service(ServeConfig(), scenario))
        assert first.status == second.status == 202

    def test_drain_waits_for_running_and_queued_jobs(self):
        async def scenario(service):
            held, waiting = await queue_behind_held(service, [make_body(seed=s) for s in (1, 2)])
            drain = await service.handle("POST", "/admin/drain", {}, None)
            shutdown = asyncio.ensure_future(service.wait_for_shutdown())
            await asyncio.sleep(0.2)
            shut_while_held = shutdown.done()
            service.release.set()
            await asyncio.wait_for(shutdown, timeout=60)
            responses = await asyncio.wait_for(asyncio.gather(held, *waiting), timeout=60)
            return drain, shut_while_held, responses

        drain, shut_while_held, responses = run(
            with_held_service(ServeConfig(workers=1), scenario)
        )
        assert drain.status == 202
        assert drain.body["pending"] == 3
        assert shut_while_held is False
        assert [r.status for r in responses] == [200] * 3


class TestHealthzAndMetrics:
    def test_healthz_reports_version_from_single_source(self):
        from repro._version import __version__

        async def scenario(service):
            return await service.handle("GET", "/healthz", {}, None)

        body = run(with_service(ServeConfig(workers=3), scenario)).body
        assert body["version"] == __version__
        assert body["status"] == "ok"
        assert body["workers"] == 3
        assert body["queue"]["maxsize"] == 64

    def test_metrics_reuses_the_cache_info_helper(self):
        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body())
            metrics = await service.handle("GET", "/metrics", {}, None)
            return metrics.body, service.cache.info()

        metrics, cache_info = run(with_service(ServeConfig(), scenario))
        # Same helper, same keys: /metrics embeds CompileCache.info() verbatim.
        assert set(metrics["cache"]) == set(cache_info)
        assert metrics["cache"]["stats"]["stores"] == 1
        assert metrics["gauges"]["queue_depth"] == 0
        assert metrics["latency_seconds"]["pass_route"]["count"] == 1

    def test_metrics_is_json_serializable(self):
        import json

        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body())
            return await service.handle("GET", "/metrics", {}, None)

        json.dumps(run(with_service(ServeConfig(), scenario)).body)


class TestFaultInjection:
    """Faults through the service path surface as structured HTTP bodies.

    Mirrors ``tests/api/test_batch_failures.py``: an injected fault must
    never drop the connection -- it becomes a JSON error body with the
    ``CompileError.summary()`` shape -- and a killed worker mid-batch must
    leave every sibling slot bit-identical to a clean run.
    """

    def test_injected_exception_is_a_structured_500(self, faults):
        faults.inject("*", "exception")

        async def scenario(service):
            response = await service.handle("POST", "/v1/compile", {}, make_body())
            return response, service.metrics.counter("failures")

        response, failures = run(with_service(ServeConfig(), scenario))
        assert response.status == 500
        assert response.body["ok"] is False
        assert response.body["error"]["error"] == "InjectedFault"
        assert response.body["error"]["phase"] == "inject"
        assert failures == 1

    def test_timeout_through_service_is_a_structured_500(self, faults):
        faults.inject("*", "delay", delay_seconds=30.0)

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(timeout=0.5), scenario))
        assert response.status == 500
        assert response.body["error"]["error"] == "Timeout"
        assert response.body["error"]["phase"] == "worker"

    def test_killed_worker_mid_batch_leaves_siblings_bit_identical(self, faults):
        requests = [
            CompileRequest(generate="ghz:6", backend="ankaa3", router="greedy", seed=s)
            for s in range(3)
        ]
        clean = compile_many(requests, cache=False)
        # Index targets count positions inside ONE batch, so index 1 kills
        # the middle slot of this three-request batch and nothing else.
        faults.inject(1, "kill")
        body = {"requests": [make_body(seed=s) for s in range(3)]}

        async def scenario(service):
            return await service.handle("POST", "/v1/batch", {}, body)

        response = run(with_service(ServeConfig(), scenario))
        assert response.status == 200  # a served batch with failed slots is still a batch
        slots = response.body["results"]
        assert slots[1]["ok"] is False
        assert slots[1]["error"]["error"] == "WorkerCrash"
        assert slots[1]["error"]["phase"] == "worker"
        for index in (0, 2):
            assert slots[index]["ok"] is True
            assert normalize(slots[index]["result"]) == normalize(
                result_to_payload(clean.results[index])
            )

    def test_retry_recovers_an_attempt_zero_fault(self, faults):
        faults.inject("*", "exception", attempt=0)

        async def scenario(service):
            return await service.handle("POST", "/v1/compile", {}, make_body())

        response = run(with_service(ServeConfig(retries=1), scenario))
        assert response.status == 200
        assert response.body["ok"] is True


class TestConfigValidation:
    def test_bad_config_values_raise_early(self):
        with pytest.raises(ValueError):
            CompileService(ServeConfig(workers=0))
        with pytest.raises(ValueError):
            CompileService(ServeConfig(queue_size=0))
        with pytest.raises(ValueError):
            CompileService(ServeConfig(timeout=0))
        with pytest.raises(ValueError):
            CompileService(ServeConfig(retries=-1))
        for coerced in (
            {"workers": 2.5},
            {"retries": True},
            {"retries": 2.5},
            {"timeout": True},
            {"queue_size": 2.5},
            {"queue_size": True},
            {"queue_size": "3"},
        ):
            with pytest.raises(ValueError):
                CompileService(ServeConfig(**coerced))
