"""Fault-tolerant :func:`repro.api.compile_many`: failures as data, not chaos.

The contract under test: with ``on_error="collect"`` a failing request
becomes a structured :class:`CompileError` *in its slot* while every other
request still returns its bit-for-bit deterministic result, independent of
worker count; bounded retries with deterministic seeded backoff recover
transparently from transient (attempt-0-only) faults; wall-clock timeouts
and killed workers are reaped and recorded instead of hanging or crashing
the batch; and every argument is validated up front with a
:class:`ValueError` before any work is scheduled.
"""

import os

import pytest

from repro.api import (
    CompileError,
    CompileRequest,
    FaultPlan,
    compile_many,
    compile_sweep,
)
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.hardware.topologies import grid_topology

GRID = grid_topology(4, 4)


def gates_of(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def eight_requests():
    """The acceptance workload: 8 distinct requests across two routers."""
    circuits = [ghz_circuit(8), qft_circuit(6)]
    return [
        CompileRequest(circuit=circuit, backend=GRID, router=router, seed=seed)
        for router in ("greedy", "sabre")
        for circuit in circuits
        for seed in (0, 3)
    ]


@pytest.fixture(scope="module")
def clean_serial():
    """Per-slot reference results from a clean serial run (no faults)."""
    return compile_many(eight_requests(), workers=1, cache=False)


class TestAcceptanceScenario:
    """ISSUE 6 acceptance: 8 requests, exception@2 + kill@5, collect mode."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_six_results_two_structured_errors_in_order(self, workers, clean_serial):
        plan = FaultPlan().inject(2, "exception").inject(5, "kill")
        batch = compile_many(
            eight_requests(),
            workers=workers,
            cache=False,
            on_error="collect",
            faults=plan,
        )
        assert len(batch) == 8
        assert not batch.ok
        assert [index for index, _ in batch.failures] == [2, 5]
        for index, (result, reference) in enumerate(zip(batch, clean_serial)):
            if index in (2, 5):
                assert isinstance(result, CompileError)
                assert not result.ok
            else:
                assert result.ok
                assert gates_of(result.routed_circuit) == gates_of(
                    reference.routed_circuit
                )
                assert result.routing.final_layout == reference.routing.final_layout
        injected, crashed = batch[2], batch[5]
        assert injected.phase == "inject"
        assert injected.exc_type == "InjectedFault"
        assert "attempt 0" in injected.message
        assert crashed.phase == "worker"
        assert "exit code 137" in crashed.message
        # both carry enough context to replay the failing request
        assert injected.request.router == "greedy"
        assert crashed.request.router == "sabre"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_faulted_siblings_never_perturb_clean_results(self, workers, clean_serial):
        """Determinism under failure: non-faulted slots are bit-for-bit
        identical to a clean serial run, for every worker count."""
        plan = FaultPlan().inject(2, "exception").inject(5, "exception")
        batch = compile_many(
            eight_requests(),
            workers=workers,
            cache=False,
            on_error="collect",
            faults=plan,
        )
        for index, (result, reference) in enumerate(zip(batch, clean_serial)):
            if index in (2, 5):
                assert isinstance(result, CompileError)
            else:
                assert gates_of(result.routed_circuit) == gates_of(
                    reference.routed_circuit
                )
                deterministic = lambda metrics: {
                    k: v for k, v in metrics.items() if "seconds" not in k
                }
                assert deterministic(result.metrics) == deterministic(
                    reference.metrics
                )


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_attempt_zero_fault_recovers_transparently(self, workers, clean_serial):
        """A fault injected only on attempt 0 is absorbed by one retry: the
        batch comes back fully successful and bit-for-bit identical."""
        plan = FaultPlan().inject(2, "exception", attempt=0).inject(
            5, "exception", attempt=0
        )
        batch = compile_many(
            eight_requests(),
            workers=workers,
            cache=False,
            retries=1,
            faults=plan,
        )
        assert batch.ok and not batch.failures
        for result, reference in zip(batch, clean_serial):
            assert gates_of(result.routed_circuit) == gates_of(
                reference.routed_circuit
            )

    def test_kill_on_attempt_zero_recovers_with_retry(self, clean_serial):
        plan = FaultPlan().inject(2, "kill", attempt=0)
        batch = compile_many(
            eight_requests(), workers=2, cache=False, retries=1, faults=plan
        )
        assert batch.ok
        assert gates_of(batch[2].routed_circuit) == gates_of(
            clean_serial[2].routed_circuit
        )

    def test_exhausted_retries_report_total_attempts(self):
        plan = FaultPlan().inject(2, "exception")  # fires on every attempt
        batch = compile_many(
            eight_requests(),
            workers=1,
            cache=False,
            on_error="collect",
            retries=2,
            faults=plan,
        )
        assert isinstance(batch[2], CompileError)
        assert batch[2].attempts == 3  # 1 try + 2 retries


class TestTimeouts:
    def test_hung_request_times_out_and_is_recorded(self):
        plan = FaultPlan().inject(2, "delay", delay_seconds=5.0)
        batch = compile_many(
            eight_requests(),
            workers=2,
            cache=False,
            on_error="collect",
            timeout=0.5,
            faults=plan,
        )
        error = batch[2]
        assert isinstance(error, CompileError)
        assert error.phase == "worker"
        assert "timed out" in error.message
        assert all(result.ok for i, result in enumerate(batch) if i != 2)

    def test_timeout_with_serial_workers_still_enforced(self):
        plan = FaultPlan().inject(0, "delay", delay_seconds=5.0)
        batch = compile_many(
            eight_requests()[:3],
            workers=1,
            cache=False,
            on_error="collect",
            timeout=0.5,
            faults=plan,
        )
        assert isinstance(batch[0], CompileError)
        assert batch[1].ok and batch[2].ok


class TestOnErrorRaise:
    def test_injected_fault_raises_compile_error(self):
        plan = FaultPlan().inject(1, "exception")
        with pytest.raises(CompileError) as excinfo:
            compile_many(
                eight_requests()[:4], workers=1, cache=False, retries=0, faults=plan
            )
        assert excinfo.value.phase == "inject"
        assert excinfo.value.request.seed == 3

    def test_worker_kill_raises_compile_error(self):
        plan = FaultPlan().inject(1, "kill")
        with pytest.raises(CompileError) as excinfo:
            compile_many(eight_requests()[:4], workers=2, cache=False, faults=plan)
        assert excinfo.value.phase == "worker"


class TestArgumentValidation:
    """Satellite 1: bad knobs fail fast with ValueError, before any work."""

    def test_zero_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be"):
            compile_many(eight_requests()[:1], timeout=0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be"):
            compile_many(eight_requests()[:1], timeout=-1.5)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries must be"):
            compile_many(eight_requests()[:1], retries=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff must be"):
            compile_many(eight_requests()[:1], backoff=-0.1)

    @pytest.mark.parametrize("backoff", [float("nan"), float("inf")])
    def test_non_finite_backoff_rejected(self, backoff):
        # a NaN retry time never comes due; sleeping it raises past "collect"
        with pytest.raises(ValueError, match="backoff must be"):
            compile_many(eight_requests()[:1], cache=False, backoff=backoff)

    def test_unknown_on_error_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error must be one of"):
            compile_many(eight_requests()[:1], on_error="ignore")

    def test_bad_workers_still_rejected(self):
        with pytest.raises(ValueError, match="workers must be"):
            compile_many(eight_requests()[:1], workers=0)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("workers", 2.5),
            ("workers", True),
            ("workers", "2"),
            ("retries", 2.5),
            ("retries", True),
            ("retries", "3"),
            ("timeout", True),
            ("timeout", "30"),
            ("backoff", True),
        ],
    )
    def test_no_argument_is_coerced(self, option, value):
        with pytest.raises(ValueError, match=f"{option} must be"):
            compile_many(eight_requests()[:1], cache=False, **{option: value})


class TestCircuitWiderThanItsBackend:
    def test_is_collected_as_a_load_failure(self):
        wide = CompileRequest(generate="ghz:100", backend="ankaa3", router="sabre")
        batch = compile_many([wide, eight_requests()[0]], cache=False, on_error="collect")
        error = batch[0]
        assert isinstance(error, CompileError)
        assert error.phase == "load"
        assert "100 qubits" in error.message and "82 physical qubits" in error.message
        assert batch[1].ok


_FORKS = []
os.register_at_fork(after_in_parent=lambda: _FORKS.append(1))


@pytest.fixture
def forks():
    """The number of processes this test has forked so far."""
    before = len(_FORKS)
    return lambda: len(_FORKS) - before


class TestForksPerBatch:
    """A batch forks its pool size plus one child per respawn."""

    def test_pool_children_live_for_the_whole_batch(self, forks, clean_serial):
        batch = compile_many(eight_requests()[:6], workers=2, cache=False, timeout=60)
        assert forks() == 2
        for result, reference in zip(batch, clean_serial):
            assert gates_of(result.routed_circuit) == gates_of(reference.routed_circuit)

    def test_a_killed_child_is_replaced_once(self, forks, clean_serial):
        plan = FaultPlan().inject(2, "kill", attempt=0)
        batch = compile_many(
            eight_requests()[:6], workers=2, cache=False, retries=1, faults=plan
        )
        assert forks() == 3
        assert batch.ok
        for result, reference in zip(batch, clean_serial):
            assert gates_of(result.routed_circuit) == gates_of(reference.routed_circuit)
            assert result.routing.final_layout == reference.routing.final_layout

    def test_a_timed_out_child_is_replaced_for_the_next_request(self, forks):
        plan = FaultPlan().inject(0, "delay", delay_seconds=5.0)
        batch = compile_many(
            eight_requests()[:3],
            workers=1,
            cache=False,
            on_error="collect",
            timeout=0.5,
            faults=plan,
        )
        assert "timed out" in batch[0].message
        assert batch[1].ok and batch[2].ok
        assert forks() == 2


class TestBatchResultFailureViews:
    @pytest.fixture(scope="class")
    def mixed_batch(self):
        plan = FaultPlan().inject(2, "exception").inject(5, "exception")
        return compile_many(
            eight_requests(),
            workers=1,
            cache=False,
            on_error="collect",
            faults=plan,
        )

    def test_successes_and_errors_partition_the_batch(self, mixed_batch):
        assert len(mixed_batch.successes) == 6
        assert len(mixed_batch.errors) == 2
        assert all(result.ok for result in mixed_batch.successes)
        assert all(not error.ok for error in mixed_batch.errors)

    def test_failures_carry_original_indices(self, mixed_batch):
        assert [index for index, _ in mixed_batch.failures] == [2, 5]
        routers = {index: error.request.router for index, error in mixed_batch.failures}
        assert routers == {2: "greedy", 5: "sabre"}

    def test_raise_for_failures_reraises_first_error(self, mixed_batch):
        with pytest.raises(CompileError, match=r"request #2"):
            mixed_batch.raise_for_failures()

    def test_summary_counts_failures(self, mixed_batch):
        summary = mixed_batch.summary()
        assert summary["failed"] == 2
        assert [f["index"] for f in summary["failures"]] == [2, 5]
        assert summary["failures"][0]["error"] == "InjectedFault"

    def test_per_router_skips_failed_slots(self, mixed_batch):
        per_router = mixed_batch.per_router()
        assert sum(stats["runs"] for stats in per_router.values()) == 6

    def test_clean_batch_raise_for_failures_is_noop(self, clean_serial):
        assert clean_serial.ok
        clean_serial.raise_for_failures()
        assert clean_serial.errors == []


class TestCompileErrorShape:
    def test_summary_fields(self):
        plan = FaultPlan().inject(0, "exception", message="boom")
        batch = compile_many(
            eight_requests()[:1],
            workers=1,
            cache=False,
            on_error="collect",
            faults=plan,
        )
        error = batch[0]
        summary = error.summary()
        assert summary["error"] == "InjectedFault"
        assert summary["phase"] == "inject"
        assert summary["attempts"] == 1
        assert "boom" in summary["message"]
        assert len(summary["traceback_digest"]) == 12
        assert "InjectedFault" in error.describe()
        assert "inject" in error.describe()

    def test_compile_error_is_picklable(self):
        import pickle

        plan = FaultPlan().inject(0, "exception")
        batch = compile_many(
            eight_requests()[:1],
            workers=1,
            cache=False,
            on_error="collect",
            faults=plan,
        )
        clone = pickle.loads(pickle.dumps(batch[0]))
        assert clone.phase == batch[0].phase
        assert clone.exc_type == batch[0].exc_type
        assert clone.traceback_digest == batch[0].traceback_digest


class TestCleanPathUnchanged:
    """Fault tolerance must not perturb the legacy clean path."""

    def test_clean_collect_matches_clean_raise(self, clean_serial):
        collected = compile_many(
            eight_requests(), workers=1, cache=False, on_error="collect"
        )
        assert collected.ok
        for left, right in zip(collected, clean_serial):
            assert gates_of(left.routed_circuit) == gates_of(right.routed_circuit)

    def test_real_error_still_propagates_by_default(self):
        bad = CompileRequest(
            circuit=ghz_circuit(8), backend=GRID, router="no-such-router", seed=0
        )
        with pytest.raises(KeyError):
            compile_many([bad], workers=1, cache=False)

    def test_real_error_collected_with_policy(self):
        bad = CompileRequest(
            circuit=ghz_circuit(8), backend=GRID, router="no-such-router", seed=0
        )
        good = CompileRequest(
            circuit=ghz_circuit(8), backend=GRID, router="greedy", seed=0
        )
        batch = compile_many([good, bad, good], workers=1, cache=False, on_error="collect")
        assert batch[0].ok and batch[2].ok
        assert isinstance(batch[1], CompileError)
        assert batch[1].exc_type == "UnknownRouterError"

    def test_sweep_passes_failure_knobs_through(self):
        plan = FaultPlan().inject(0, "exception")
        base = CompileRequest(
            circuit=ghz_circuit(8), backend=GRID, router="greedy", seed=0
        )
        # cache=False: a warm process-global cache would answer request 0
        # before the execution-fault injection point is ever reached
        batch = compile_sweep(
            base,
            routers=("greedy", "sabre"),
            seeds=(0,),
            cache=False,
            on_error="collect",
            faults=plan,
        )
        assert isinstance(batch[0], CompileError)
        assert batch[1].ok
