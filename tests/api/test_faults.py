"""The fault plan the failure-contract tests use, the backoff, and the guard.

Covers :mod:`tests.faults` (targeting, attempt scoping, what each fault kind
does and where it fires), the seeded backoff schedule of
:mod:`repro.api.batch`, and the guard that fault injection stays a test
fixture: no module under ``src/repro`` names it, and no production entry
point, config or command accepts a fault plan.  The disk tier's failure
battery lives in ``test_cache_store.py``: each test there builds the
degraded state on disk or makes one OS call fail.
"""

import dataclasses
import inspect
import re
import time
from pathlib import Path

import pytest

from repro.analysis.perf_trajectory import run_perf_smoke
from repro.api import (
    CompileError,
    CompileRequest,
    compile as api_compile,
    compile_many,
    compile_sweep,
    deterministic_backoff,
    request_fingerprint,
)
from repro.benchgen.qasmbench import ghz_circuit
from repro.cli import main
from repro.hardware.topologies import grid_topology
from repro.serve import ServeConfig
from tests.faults import FaultPlan, InjectedFault

GRID = grid_topology(4, 4)
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def request_for(seed=0, router="greedy"):
    return CompileRequest(circuit=ghz_circuit(8), backend=GRID, router=router, seed=seed)


class TestFaultPlan:
    @pytest.mark.parametrize("kind", ["explode", "cache-corrupt"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan().inject(0, kind)

    def test_index_target(self):
        plan = FaultPlan().inject(2, "exception")
        with pytest.raises(InjectedFault):
            plan.fire(request_for(), 2, 0)
        plan.fire(request_for(), 1, 0)

    def test_fingerprint_target_fires_at_any_index(self):
        plan = FaultPlan().inject(request_fingerprint(request_for()), "exception")
        with pytest.raises(InjectedFault):
            plan.fire(request_for(), 41, 0)
        plan.fire(request_for(seed=1), 41, 0)

    def test_wildcard_target(self):
        plan = FaultPlan().inject("*", "exception")
        for index, attempt in ((0, 0), (9, 3)):
            with pytest.raises(InjectedFault):
                plan.fire(request_for(), index, attempt)

    def test_unscoped_fault_fires_on_every_attempt(self):
        plan = FaultPlan().inject(0, "exception")
        for attempt in (0, 7):
            with pytest.raises(InjectedFault):
                plan.fire(request_for(), 0, attempt)

    def test_attempt_scoped_fault_fires_once(self):
        plan = FaultPlan().inject(0, "exception", attempt=0)
        with pytest.raises(InjectedFault):
            plan.fire(request_for(), 0, 0)
        plan.fire(request_for(), 0, 1)

    def test_exception_names_the_request_and_attempt(self):
        plan = FaultPlan().inject(3, "exception", message="boom")
        with pytest.raises(InjectedFault, match=r"boom \(request #3, attempt 1\)"):
            plan.fire(request_for(), 3, 1)

    def test_kill_in_the_process_that_made_the_plan_raises(self):
        # the test's own interpreter must survive a kill fired in process
        plan = FaultPlan().inject(0, "kill")
        with pytest.raises(InjectedFault, match="outside a worker process"):
            plan.fire(request_for(), 0, 0)

    def test_delay_sleeps(self):
        plan = FaultPlan().inject(0, "delay", delay_seconds=0.05)
        start = time.perf_counter()
        plan.fire(request_for(), 0, 0)
        assert time.perf_counter() - start >= 0.04

    def test_no_faults_is_a_no_op(self):
        FaultPlan().fire(request_for(), 0, 0)

    def test_an_entered_plan_fires_inside_the_attempt(self, faults):
        faults.inject(1, "exception")
        batch = compile_many(
            [request_for(seed) for seed in range(3)], cache=False, on_error="collect"
        )
        assert batch[0].ok and batch[2].ok
        assert isinstance(batch[1], CompileError)
        assert (batch[1].phase, batch[1].exc_type) == ("inject", "InjectedFault")

    def test_leaving_the_plan_restores_the_compile(self):
        with FaultPlan().inject("*", "exception"):
            assert not compile_many([request_for()], cache=False, on_error="collect").ok
        assert compile_many([request_for()], cache=False).ok


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


class TestNoFaultHarnessInTheProgram:
    FAULT_NAMES = re.compile(r"FaultPlan|InjectedFault|apply_execution_faults|inject[-_]faults")

    def test_no_module_names_the_fault_harness(self):
        named = [
            f"{path.relative_to(SRC)}:{number}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if self.FAULT_NAMES.search(line)
        ]
        assert not named

    @pytest.mark.parametrize(
        "entry_point", [api_compile, compile_many, compile_sweep, run_perf_smoke]
    )
    def test_no_entry_point_accepts_faults(self, entry_point):
        assert "faults" not in inspect.signature(entry_point).parameters

    def test_the_service_config_has_no_faults(self):
        assert "faults" not in {field.name for field in dataclasses.fields(ServeConfig)}

    @pytest.mark.parametrize("command", [["map", "--generate", "ghz:8"], ["bench"], ["serve"]])
    def test_the_fault_flag_is_an_argument_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--inject-faults", "*:exception"])
        assert excinfo.value.code == 2
        assert "--inject-faults" in capsys.readouterr().err
