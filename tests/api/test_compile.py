"""Parity and pipeline tests for :func:`repro.api.compile`.

The load-bearing guarantee: the unified pipeline produces **gate-for-gate
identical** routed circuits to driving the router objects by hand (direct
construction + ``run``, with a hand-built bidirectional layout for the
placement cases) for every registered router and every seed.  A
bidirectional request runs its forward/backward passes with its own router.
"""

import pytest

from repro.analysis.perf_trajectory import smoke_fixture
from repro.api import (
    CompileError,
    CompileRequest,
    UnknownRouterError,
    compile as api_compile,
    compile_many,
    resolve_router,
    router_names,
)
from repro.baselines.cirq_like import CirqLikeRouter
from repro.baselines.greedy import GreedyDistanceRouter
from repro.baselines.qmap_like import QmapLikeRouter
from repro.baselines.sabre import LightSabreRouter, SabreRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.circuit.validation import RoutingValidationError, verify_routing
from repro.core.config import QlosureConfig
from repro.core.router import QlosureRouter
from repro.hardware.backends import grid_9x9
from repro.hardware.topologies import grid_topology
from repro.obs.trace import Tracer, use_tracer
from repro.routing.layout import Layout

GRID = grid_topology(4, 4)

#: Legacy construction for every canonical registry name (the oracle).
LEGACY_ROUTERS = {
    "sabre": SabreRouter,
    "lightsabre": LightSabreRouter,
    "qmap": QmapLikeRouter,
    "cirq": CirqLikeRouter,
    "tket": TketLikeRouter,
    "greedy": GreedyDistanceRouter,
}


def gates_of(circuit):
    return [(g.name, g.qubits, g.params) for g in circuit]


def legacy_bidirectional_layout(router, circuit, passes):
    """Forward/backward round trips of ``router``, written out as the oracle."""
    layout = Layout.trivial(circuit.num_qubits, GRID.num_qubits)
    backward = QuantumCircuit(circuit.num_qubits, reversed(circuit.gates))
    for _ in range(passes):
        forward = router.run(circuit, layout)
        layout = Layout(circuit.num_qubits, GRID.num_qubits, forward.final_layout)
        reverse = router.run(backward, layout)
        layout = Layout(circuit.num_qubits, GRID.num_qubits, reverse.final_layout)
    return layout


def fixture_circuits():
    queko = generate_queko_circuit(GRID, depth=8, seed=11, name="queko-parity")
    return [ghz_circuit(10), qft_circuit(8), queko.circuit]


class TestLegacyParity:
    @pytest.mark.parametrize("name", sorted(LEGACY_ROUTERS))
    def test_baselines_match_legacy_path_gate_for_gate(self, name):
        for circuit in fixture_circuits():
            legacy = LEGACY_ROUTERS[name](GRID).run(circuit)
            result = api_compile(
                CompileRequest(circuit=circuit, backend=GRID, router=name)
            )
            assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)
            assert result.routing.final_layout == legacy.final_layout

    def test_every_registered_router_is_covered(self):
        assert set(LEGACY_ROUTERS) | {"qlosure"} == set(router_names())

    def test_qlosure_matches_legacy_mapper(self):
        for circuit in fixture_circuits():
            legacy = QlosureRouter(GRID, QlosureConfig()).run(circuit)
            result = api_compile(
                CompileRequest(circuit=circuit, backend=GRID, router="qlosure")
            )
            assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_seeds_flow_through_per_router(self, seed):
        circuit = qft_circuit(8)
        for name, cls in LEGACY_ROUTERS.items():
            legacy = cls(GRID, seed=seed).run(circuit)
            result = api_compile(
                CompileRequest(circuit=circuit, backend=GRID, router=name, seed=seed)
            )
            assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)
        legacy = QlosureRouter(GRID, QlosureConfig(seed=seed)).run(circuit)
        result = api_compile(
            CompileRequest(circuit=circuit, backend=GRID, router="qlosure", seed=seed)
        )
        assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)

    def test_bidirectional_placement_matches_legacy_mapper(self):
        circuit = qft_circuit(8)
        config = QlosureConfig()
        layout = legacy_bidirectional_layout(QlosureRouter(GRID, config), circuit, 1)
        legacy = QlosureRouter(GRID, config).run(circuit, layout)
        result = api_compile(
            CompileRequest(
                circuit=circuit,
                backend=GRID,
                router="qlosure",
                placement="bidirectional",
                placement_options={"passes": 1},
            )
        )
        assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)

    def test_bidirectional_placement_threads_the_seed(self):
        # regression: placement passes must route with the same seed as the
        # final run (what the CLI builds for --seed N --bidirectional-passes)
        circuit = qft_circuit(8)
        config = QlosureConfig(seed=4)
        layout = legacy_bidirectional_layout(QlosureRouter(GRID, config), circuit, 1)
        legacy = QlosureRouter(GRID, config).run(circuit, layout)
        result = api_compile(
            CompileRequest(
                circuit=circuit,
                backend=GRID,
                router="qlosure",
                seed=4,
                placement="bidirectional",
                placement_options={"passes": 1},
            )
        )
        assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)

    @pytest.mark.parametrize("name", router_names())
    def test_bidirectional_placement_runs_the_request_router(self, name):
        circuit = qft_circuit(8)
        router = resolve_router(name).make(GRID, seed=3)
        layout = router.bidirectional_layout(circuit, 1)
        assert layout.as_list() == legacy_bidirectional_layout(router, circuit, 1).as_list()
        legacy = router.run(circuit, layout)
        result = api_compile(
            CompileRequest(
                circuit=circuit,
                backend=GRID,
                router=name,
                seed=3,
                placement="bidirectional",
                placement_options={"passes": 1},
            ),
            cache=False,
        )
        assert result.initial_layout == legacy.initial_layout
        assert gates_of(result.routed_circuit) == gates_of(legacy.routed_circuit)

    def test_router_aliases_compile_identically(self):
        circuit = ghz_circuit(10)
        canonical = api_compile(
            CompileRequest(circuit=circuit, backend=GRID, router="tket")
        )
        aliased = api_compile(
            CompileRequest(circuit=circuit, backend=GRID, router="pytket")
        )
        assert gates_of(canonical.routed_circuit) == gates_of(aliased.routed_circuit)
        assert aliased.router == "tket"


class TestPipeline:
    def test_pass_timings_cover_the_pipeline_in_order(self):
        result = api_compile(
            CompileRequest(circuit=ghz_circuit(8), backend=GRID, router="sabre")
        )
        assert list(result.pass_timings) == ["load", "place", "route", "validate", "metrics"]
        assert all(t >= 0 for t in result.pass_timings.values())
        assert result.total_seconds >= result.route_seconds

    def test_metrics_record(self):
        result = api_compile(
            CompileRequest(circuit=qft_circuit(6), backend=GRID, router="qlosure", seed=2)
        )
        metrics = result.metrics
        assert metrics["router"] == "qlosure"
        assert metrics["seed"] == 2
        assert metrics["num_qubits"] == 6
        assert metrics["swaps"] == result.swaps_added
        assert metrics["routed_depth"] == result.routed_depth

    def test_validation_full_passes_on_valid_output(self):
        result = api_compile(
            CompileRequest(
                circuit=ghz_circuit(10),
                backend=GRID,
                router="greedy",
                validation="full",
            )
        )
        verify_routing(
            ghz_circuit(10),
            result.routed_circuit,
            GRID.edges(),
            result.initial_layout,
        )

    @pytest.mark.parametrize("router", router_names())
    def test_input_with_mid_circuit_swaps_verifies(self, router):
        # A routed QFT read back as input: its SWAPs have gates after them.
        circuit = api_compile(
            CompileRequest(circuit=qft_circuit(8), backend=GRID, router="sabre"),
            cache=False,
        ).routed_circuit
        swaps = [i for i, gate in enumerate(circuit) if gate.is_swap]
        assert swaps and swaps[0] < len(circuit) - 10
        result = api_compile(
            CompileRequest(circuit=circuit, backend=GRID, router=router, validation="full"),
            cache=False,
        )
        verify_routing(circuit, result.routed_circuit, GRID.edges(), result.initial_layout)

    def test_greedy_placement_strategy_routes_correctly(self):
        circuit = qft_circuit(8)
        result = api_compile(
            CompileRequest(
                circuit=circuit,
                backend=GRID,
                router="sabre",
                placement="greedy",
                validation="full",
            )
        )
        assert result.routed_depth >= 1

    def test_backend_resolved_by_name(self):
        result = api_compile(
            CompileRequest(circuit=ghz_circuit(8), backend="ankaa3", router="cirq")
        )
        assert result.backend_name == "rigetti-ankaa-3"

    def test_generate_source(self):
        result = api_compile(
            CompileRequest(generate="ghz:12", backend=GRID, router="tket")
        )
        assert result.metrics["num_qubits"] == 12

    def test_qasm_source(self, tmp_path):
        path = tmp_path / "bell.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        )
        result = api_compile(CompileRequest(qasm=path, backend=GRID))
        assert result.metrics["num_gates"] == 2


class TestErrors:
    def test_no_source_rejected(self):
        with pytest.raises(CompileError):
            api_compile(CompileRequest(backend=GRID))

    def test_two_sources_rejected(self):
        with pytest.raises(CompileError):
            api_compile(
                CompileRequest(circuit=ghz_circuit(4), generate="ghz:4", backend=GRID)
            )

    def test_unknown_router_rejected(self):
        with pytest.raises(UnknownRouterError):
            api_compile(
                CompileRequest(circuit=ghz_circuit(4), backend=GRID, router="nope")
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(CompileError):
            api_compile(CompileRequest(circuit=ghz_circuit(4), backend="nope"))

    def test_unknown_validation_level_rejected(self):
        with pytest.raises(CompileError):
            api_compile(
                CompileRequest(circuit=ghz_circuit(4), backend=GRID, validation="extreme")
            )

    def test_unknown_placement_rejected(self):
        with pytest.raises(CompileError):
            api_compile(
                CompileRequest(circuit=ghz_circuit(4), backend=GRID, placement="magic")
            )

    def test_missing_qasm_file_rejected(self, tmp_path):
        with pytest.raises(CompileError, match="cannot read QASM file"):
            api_compile(CompileRequest(qasm=tmp_path / "missing.qasm", backend=GRID))

    @pytest.mark.parametrize(
        "placement,options",
        [
            ("bidirectional", {"bogus": 1}),
            ("bidirectional", {"passes": "x"}),
            ("bidirectional", {"passes": -1}),
            ("bidirectional", {"passes": True}),
            ("bidirectional", {"passes": 1.0}),
            ("bidirectional", {"passes": 1, "config": QlosureConfig()}),
            ("identity", {"passes": "x"}),
            ("identity", {"passes": 1}),
            ("greedy", {"passes": 0}),
        ],
    )
    def test_malformed_placement_options_rejected(self, placement, options):
        request = CompileRequest(
            circuit=ghz_circuit(4),
            backend=GRID,
            router="sabre",
            placement=placement,
            placement_options=options,
        )
        with pytest.raises(CompileError, match="placement_options") as caught:
            api_compile(request, cache=False)
        assert caught.value.phase == "request"

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_non_int_seed_rejected_and_never_answers_another_seed(self, seed):
        # The engine seeds its RNG with the value itself, so seed=1.5 routes
        # differently from seed=1; it must neither compile nor share 1's entry.
        from repro.api.cache import CompileCache

        cache = CompileCache()
        request = CompileRequest(generate="qft:12", backend="ankaa3", router="sabre", seed=1)
        with pytest.raises(CompileError, match="seed must be an int") as caught:
            api_compile(request.with_seed(seed), cache=cache)
        assert caught.value.phase == "request"
        routed = api_compile(request, cache=cache).routed_circuit.gates
        assert cache.stats["memory_hits"] == 0
        assert routed == api_compile(request, cache=False).routed_circuit.gates

    def test_router_construction_error_names_the_route_pass(self):
        # The router is built before the place pass (bidirectional passes
        # route with it), but failing to build it is still a route failure.
        request = CompileRequest(
            circuit=ghz_circuit(4),
            backend=GRID,
            router="sabre",
            router_config=QlosureConfig(),
            placement="bidirectional",
        )
        (error,) = compile_many([request], on_error="collect").errors
        assert error.phase == "route"
        assert "does not take a config object" in error.message


class TestBidirectionalPlacement:
    """The forward/backward passes run with the request's own router."""

    @pytest.mark.parametrize("router", ["sabre", "greedy", "qlosure"])
    def test_backward_pass_of_the_scale_4_fig8_circuit_finishes(self, router):
        # Qlosure's backward pass on this circuit cycles on a few edges until
        # its release valve opens.
        circuit = generate_queko_circuit(grid_9x9(), 16, seed=208).circuit
        result = api_compile(
            CompileRequest(
                circuit=circuit,
                backend="sherbrooke",
                router=router,
                placement="bidirectional",
                placement_options={"passes": 1},
                validation="full",
            ),
            cache=False,
        )
        assert result.router == router
        assert result.swaps_added > 0

    @pytest.mark.parametrize("router", ["sabre", "qlosure", "qmap"])
    def test_kernel_counters_count_the_final_run_only(self, router):
        # The passes only choose the layout (the place span times them); the
        # route pass's kernel.* counters see the final run alone.  The input
        # holds no SWAP of its own, so every counted SWAP is an added one.
        tracer = Tracer()
        with use_tracer(tracer):
            result = api_compile(
                CompileRequest(
                    circuit=random_circuit(12, 60, seed=3),
                    backend=GRID,
                    router=router,
                    placement="bidirectional",
                    placement_options={"passes": 1},
                ),
                cache=False,
            )
        assert result.swaps_added > 0
        assert tracer.counters["kernel.swaps_applied"] == result.swaps_added


def toffoli_circuit(qubits=(0, 2, 4)) -> QuantumCircuit:
    """A three-qubit gate followed by a CNOT that needs routing."""
    circuit = QuantumCircuit(30)
    circuit.append(Gate("ccx", qubits))
    circuit.cx(0, 4)
    return circuit


class TestWideGates:
    """Gates on more than two qubits fail the load pass, for every router."""

    @pytest.mark.parametrize("router", ["sabre", "qlosure", "qmap"])
    @pytest.mark.parametrize("validation", ["none", "full"])
    def test_rejected_before_routing(self, router, validation):
        request = CompileRequest(
            circuit=toffoli_circuit(),
            backend="sherbrooke",
            router=router,
            validation=validation,
        )
        with pytest.raises(CompileError, match="acts on more than two qubits") as caught:
            api_compile(request, cache=False)
        assert caught.value.phase == "load"

    @pytest.mark.parametrize("router", ["sabre", "qlosure", "qmap"])
    def test_adjacent_operands_are_not_passed_through(self, router):
        # The first two operands sit on coupled qubits, so the routers would
        # emit the gate unrouted, third operand and all.
        request = CompileRequest(
            circuit=toffoli_circuit((0, 1, 29)),
            backend="sherbrooke",
            router=router,
            validation="none",
        )
        with pytest.raises(CompileError, match="gate #0"):
            api_compile(request, cache=False)

    def test_collected_failure_names_the_load_pass(self):
        request = CompileRequest(circuit=toffoli_circuit(), backend="sherbrooke")
        batch = compile_many([request], on_error="collect")
        (error,) = batch.errors
        assert error.phase == "load"

    def test_wide_barriers_stay_allowed(self):
        circuit = QuantumCircuit(5)
        circuit.append(Gate("barrier", (0, 2, 4)))
        circuit.cx(0, 4)
        result = api_compile(
            CompileRequest(circuit=circuit, backend="sherbrooke", validation="full"),
            cache=False,
        )
        assert result.swaps_added > 0


class TestGateListCopies:
    """``QuantumCircuit.gates`` returns a fresh tuple on every read.

    The DAG build and the route pass's gate emission index the circuit
    instead, so a compile copies the gate list a fixed number of times, not
    once per gate (which made both quadratic in the gate count).
    """

    @pytest.mark.parametrize("router", ["sabre", "qlosure"])
    def test_copies_do_not_grow_with_gate_count(self, router, monkeypatch):
        reads = []
        gates = QuantumCircuit.gates
        monkeypatch.setattr(
            QuantumCircuit,
            "gates",
            property(lambda circuit: reads.append(circuit) or gates.fget(circuit)),
        )
        instances = smoke_fixture()
        copies = {}
        for instance in (instances[1], instances[5]):
            reads.clear()
            api_compile(
                CompileRequest(circuit=instance.circuit, backend="sherbrooke", router=router),
                cache=False,
            )
            copies[len(instance.circuit)] = len(reads)
        assert sorted(copies) == [110, 333]
        assert copies[110] == copies[333], copies
