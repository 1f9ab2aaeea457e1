"""Service-level tests for the bounded compile cache and its disk tier.

Drives :meth:`CompileService.handle` (the socket-free entry point the HTTP
front-end calls) against a disk-backed cache under eviction pressure: the
``/metrics`` eviction counters must advance, every served payload must stay
bit-identical to a direct :func:`repro.api.compile`, and a readonly service
handle must serve hits from a shared warm directory without writing.
"""

import asyncio

import pytest

from repro.api import CompileRequest
from repro.api import compile as api_compile
from repro.api.cache import CompileCache, request_fingerprint
from repro.api.serialize import result_to_payload
from repro.serve import CompileService, ServeConfig


def run(coro):
    return asyncio.run(coro)


def make_body(seed=0, router="greedy", generate="ghz:6", **extra):
    body = {"generate": generate, "backend": "ankaa3", "router": router, "seed": seed}
    body.update(extra)
    return body


def request_of(body: dict) -> CompileRequest:
    return CompileRequest(
        generate=body["generate"],
        backend=body["backend"],
        router=body["router"],
        seed=body["seed"],
    )


def normalize(result_payload: dict) -> dict:
    """A result payload minus its wall-clock fields."""
    payload = {k: v for k, v in result_payload.items() if k != "pass_timings"}
    payload["routing"] = {
        k: v for k, v in result_payload["routing"].items() if k != "runtime_seconds"
    }
    payload["metrics"] = {
        k: v for k, v in result_payload["metrics"].items() if k != "runtime_seconds"
    }
    return payload


async def with_service(config, scenario):
    service = CompileService(config)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop()


def bounded_config(tmp_path, **overrides) -> ServeConfig:
    settings = {
        "cache_dir": str(tmp_path / "cache"),
        "cache_memory_entries": 0,  # every hit must come from the disk tier
        "cache_max_entries": 1,
        "workers": 1,
    }
    settings.update(overrides)
    return ServeConfig(**settings)


class TestServeUnderEvictionPressure:
    def test_metrics_eviction_counters_advance(self, tmp_path):
        bodies = [make_body(seed=seed) for seed in range(3)]

        async def scenario(service):
            for body in bodies:
                response = await service.handle("POST", "/v1/compile", {}, body)
                assert response.status == 200
            metrics = await service.handle("GET", "/metrics", {}, None)
            return metrics.body

        metrics = run(with_service(bounded_config(tmp_path), scenario))
        # three distinct requests through a one-entry disk cache: two evictions
        assert metrics["counters"]["cache_evictions"] == 2
        assert metrics["counters"]["cache_evicted_bytes"] > 0
        assert metrics["cache"]["disk_entries"] == 1
        assert metrics["cache"]["max_entries"] == 1
        assert metrics["cache"]["disk_evictions"] == 2

    def test_served_results_stay_bit_identical_under_eviction(self, tmp_path):
        bodies = [make_body(seed=seed) for seed in range(3)]

        async def scenario(service):
            first_pass = [
                await service.handle("POST", "/v1/compile", {}, body)
                for body in bodies
            ]
            # every re-request lands on an evicted entry: recompute, not a hit
            second_pass = [
                await service.handle("POST", "/v1/compile", {}, body)
                for body in bodies[:-1]
            ]
            return first_pass, second_pass

        first_pass, second_pass = run(with_service(bounded_config(tmp_path), scenario))
        for body, response in zip(bodies, first_pass):
            direct = result_to_payload(api_compile(request_of(body), cache=False))
            assert normalize(response.body["result"]) == normalize(direct)
        for body, response in zip(bodies, second_pass):
            assert response.body["cached"] is False  # the bound evicted it
            direct = result_to_payload(api_compile(request_of(body), cache=False))
            assert normalize(response.body["result"]) == normalize(direct)

    def test_surviving_entry_still_hits_after_the_churn(self, tmp_path):
        async def scenario(service):
            await service.handle("POST", "/v1/compile", {}, make_body(seed=0))
            await service.handle("POST", "/v1/compile", {}, make_body(seed=1))
            # seed=1 is the sole survivor of the one-entry cache
            replay = await service.handle("POST", "/v1/compile", {}, make_body(seed=1))
            return replay.body

        replay = run(with_service(bounded_config(tmp_path), scenario))
        assert replay["cached"] is True


class TestConcurrentBoundedMisses:
    def test_distinct_misses_on_two_workers_all_answer_200(self, tmp_path):
        """Two executor threads store and evict in one bounded cache while
        the event loop looks up: every miss still answers 200."""
        bodies = [make_body(seed=seed, generate="ghz:4") for seed in range(150)]
        config = ServeConfig(
            workers=2,
            queue_size=len(bodies),
            cache_dir=str(tmp_path / "cache"),
            cache_max_entries=5,
        )

        async def scenario(service):
            return await asyncio.gather(
                *(service.handle("POST", "/v1/compile", {}, body) for body in bodies)
            )

        responses = run(with_service(config, scenario))
        assert [response.status for response in responses] == [200] * len(bodies)


class TestReadonlyService:
    def test_readonly_service_serves_warm_hits_without_writing(self, tmp_path):
        body = make_body()
        request = request_of(body)
        warm_dir = tmp_path / "fleet"
        writer = CompileCache(directory=warm_dir)
        writer.store(request_fingerprint(request), api_compile(request, cache=False))
        files_before = sorted(p.name for p in warm_dir.rglob("*") if p.is_file())

        async def scenario(service):
            response = await service.handle("POST", "/v1/compile", {}, body)
            metrics = await service.handle("GET", "/metrics", {}, None)
            return response, metrics.body

        config = ServeConfig(
            cache_dir=str(warm_dir), cache_memory_entries=0, cache_readonly=True
        )
        response, metrics = run(with_service(config, scenario))
        assert response.body["cached"] is True
        direct = result_to_payload(api_compile(request, cache=False))
        assert normalize(response.body["result"]) == normalize(direct)
        assert metrics["cache"]["readonly"] is True
        files_after = sorted(p.name for p in warm_dir.rglob("*") if p.is_file())
        assert files_after == files_before  # not even a touch record


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"cache_max_bytes": 100},
            {"cache_max_entries": 5},
            {"cache_readonly": True},
        ],
    )
    def test_bounds_require_a_cache_dir(self, overrides):
        with pytest.raises(ValueError, match="require cache_dir"):
            ServeConfig(**overrides).check()

    @pytest.mark.parametrize("field", ["cache_max_bytes", "cache_max_entries"])
    def test_non_positive_bounds_rejected(self, tmp_path, field):
        config = ServeConfig(cache_dir=str(tmp_path), **{field: 0})
        with pytest.raises(ValueError, match=field):
            config.check()

    @pytest.mark.parametrize(
        "field", ["cache_memory_entries", "cache_max_bytes", "cache_max_entries"]
    )
    @pytest.mark.parametrize("value", [True, 2.7, "5", 0, -1])
    def test_bad_bounds_fail_the_check_not_the_first_cache(self, tmp_path, field, value):
        config = ServeConfig(cache_dir=str(tmp_path), **{field: value})
        if field == "cache_memory_entries" and value == 0:
            config.check()  # 0 turns the memory tier off
            return
        with pytest.raises(ValueError, match=field):
            config.check()
