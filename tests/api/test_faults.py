"""Tests for the deterministic fault-injection harness (:mod:`repro.api.faults`).

Covers the plan algebra (targeting, attempt scoping, parse syntax), the
seeded backoff schedule, execution-fault application and the CLI/pipeline
wiring of ``--inject-faults``.  The disk tier's failure battery lives in
``test_cache_store.py``: each test there builds the degraded state on disk
or makes one OS call fail.
"""

import pytest

from repro.api import (
    CompileRequest,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    compile as api_compile,
    deterministic_backoff,
    request_fingerprint,
)
from repro.api.faults import apply_execution_faults
from repro.benchgen.qasmbench import ghz_circuit
from repro.hardware.topologies import grid_topology

GRID = grid_topology(4, 4)


def request_for(seed=0, router="greedy"):
    return CompileRequest(circuit=ghz_circuit(8), backend=GRID, router=router, seed=seed)


class TestFaultSpec:
    @pytest.mark.parametrize("kind", ["explode", "cache-corrupt"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind=kind)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt must be non-negative"):
            FaultSpec(kind="exception", attempt=-1)

    def test_attempt_scoping(self):
        every = FaultSpec(kind="exception")
        first_only = FaultSpec(kind="exception", attempt=0)
        assert every.matches(0) and every.matches(7)
        assert first_only.matches(0) and not first_only.matches(1)


class TestFaultPlanTargeting:
    def test_index_target(self):
        plan = FaultPlan().inject(2, "exception")
        assert plan.faults_for(None, 2, 0)
        assert not plan.faults_for(None, 1, 0)

    def test_fingerprint_target_via_request(self):
        request = request_for()
        plan = FaultPlan().inject(request, "exception")
        fingerprint = request_fingerprint(request)
        # matches by content address regardless of batch position
        assert plan.faults_for(fingerprint, 41, 0)
        assert not plan.faults_for("0" * 64, 41, 0)

    def test_wildcard_target(self):
        plan = FaultPlan().inject("*", "delay")
        assert plan.faults_for(None, 0, 0) and plan.faults_for("f" * 64, 9, 3)

    def test_attempt_scoped_fault_fires_once(self):
        plan = FaultPlan().inject(0, "exception", attempt=0)
        assert plan.faults_for(None, 0, 0)
        assert not plan.faults_for(None, 0, 1)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().inject(-1, "exception")
        with pytest.raises(ValueError):
            FaultPlan().inject(None, "exception")
        with pytest.raises(ValueError):
            FaultPlan().inject("", "exception")


class TestFaultPlanParse:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("2:exception,5:kill:0,*:delay")
        assert len(plan) == 3
        assert [s.kind for s in plan.faults_for(None, 2, 0)] == ["exception", "delay"]
        assert [s.kind for s in plan.faults_for(None, 5, 0)] == ["kill", "delay"]
        assert [s.kind for s in plan.faults_for(None, 5, 1)] == ["delay"]

    @pytest.mark.parametrize(
        "text",
        ["", "2", "2:explode", "x:exception", "2:exception:x", "2:exception:0:9"],
    )
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_plans_are_picklable(self):
        import pickle

        plan = FaultPlan.parse("2:exception,5:kill:0")
        clone = pickle.loads(pickle.dumps(plan))
        assert [s.kind for s in clone.faults_for(None, 5, 0)] == ["kill"]


class TestApplyExecutionFaults:
    def test_exception_fault_raises_injected_fault(self):
        plan = FaultPlan().inject(3, "exception", message="boom")
        with pytest.raises(InjectedFault, match=r"boom \(request #3, attempt 1\)"):
            apply_execution_faults(plan, None, 3, 1)

    def test_kill_fault_outside_worker_degrades_to_exception(self):
        # the parent interpreter must survive a kill fault applied in-process
        plan = FaultPlan().inject(0, "kill")
        with pytest.raises(InjectedFault, match="outside a worker process"):
            apply_execution_faults(plan, None, 0, 0, in_worker=False)

    def test_delay_fault_sleeps(self):
        import time

        plan = FaultPlan().inject(0, "delay", delay_seconds=0.05)
        start = time.perf_counter()
        apply_execution_faults(plan, None, 0, 0)
        assert time.perf_counter() - start >= 0.04

    def test_no_faults_is_a_no_op(self):
        apply_execution_faults(FaultPlan(), None, 0, 0)


class TestDeterministicBackoff:
    def test_pure_function_of_inputs(self):
        assert deterministic_backoff("abc", 2, 0.1) == deterministic_backoff(
            "abc", 2, 0.1
        )
        assert deterministic_backoff("abc", 2, 0.1) != deterministic_backoff(
            "abd", 2, 0.1
        )

    def test_zero_base_and_first_attempt_are_free(self):
        assert deterministic_backoff("abc", 3, 0.0) == 0.0
        assert deterministic_backoff("abc", 0, 1.0) == 0.0

    def test_exponential_envelope_with_bounded_jitter(self):
        base = 0.2
        for attempt in (1, 2, 3, 4):
            delay = deterministic_backoff("seed", attempt, base)
            envelope = base * 2 ** (attempt - 1)
            assert 0.5 * envelope <= delay < envelope


class TestCompileFaultWiring:
    def test_compile_applies_execution_faults(self):
        request = request_for()
        with pytest.raises(InjectedFault):
            api_compile(request, cache=False, faults=FaultPlan().inject("*", "exception"))

    def test_compile_accepts_parse_syntax(self):
        request = request_for()
        with pytest.raises(InjectedFault):
            api_compile(request, cache=False, faults="*:exception")

    def test_compile_rejects_bad_faults_argument(self):
        with pytest.raises(TypeError, match="faults must be"):
            api_compile(request_for(), cache=False, faults=42)


class TestCliFaultInjection:
    def test_map_inject_exception_exits_1_with_structured_summary(self, capsys):
        from repro.cli import main

        code = main(
            [
                "map",
                "--generate",
                "ghz:8",
                "--mapper",
                "greedy",
                "--no-cache",
                "--inject-faults",
                "*:exception",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "repro-map: compile failed:" in captured.err
        assert "InjectedFault" in captured.err
        assert "Traceback" not in captured.err

    def test_map_bad_fault_spec_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            ["map", "--generate", "ghz:8", "--inject-faults", "nonsense"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--inject-faults" in captured.err

    def test_map_cache_fault_kind_exits_2(self, capsys):
        from repro.cli import main

        code = main(["map", "--generate", "ghz:8", "--inject-faults", "*:cache-corrupt"])
        assert code == 2
        assert "unknown fault kind 'cache-corrupt'" in capsys.readouterr().err
