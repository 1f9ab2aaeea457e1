"""Tests for the shared routing engine."""

import random

import pytest

from repro.analysis.perf_trajectory import smoke_fixture
from repro.api.registry import router_specs
from repro.baselines.cirq_like import CirqLikeRouter
from repro.baselines.greedy import GreedyDistanceRouter
from repro.baselines.qmap_like import QmapLikeRouter
from repro.baselines.sabre import LightSabreRouter, SabreRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from repro.circuit.validation import verify_routing
from repro.hardware.backends import sherbrooke
from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology, line_topology
from repro.routing.engine import RouterError, RoutingEngine, RoutingState
from repro.routing.layout import Layout

from tests.routing.test_stress import stress_corpus


class TestEngineBasics:
    def test_disconnected_device_rejected(self):
        disconnected = CouplingGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            GreedyDistanceRouter(disconnected)

    def test_circuit_larger_than_device_rejected(self, line5):
        router = GreedyDistanceRouter(line5)
        with pytest.raises(ValueError):
            router.run(QuantumCircuit(6))

    def test_abstract_swap_costs(self, line5):
        engine = RoutingEngine(line5)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        with pytest.raises(NotImplementedError):
            engine.run(circuit)

    def test_already_routable_circuit_needs_no_swaps(self, line5):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.swaps_added == 0
        assert result.routed_depth == circuit.depth()

    def test_single_far_gate_uses_minimum_swaps(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 4)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.swaps_added == 3  # distance 4 -> 3 swaps to become adjacent
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)

    def test_initial_layout_is_respected(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        layout = Layout(2, 5, {0: 0, 1: 4})
        result = GreedyDistanceRouter(line5).run(circuit, layout)
        assert result.initial_layout == {0: 0, 1: 4}
        assert result.swaps_added == 3
        verify_routing(circuit, result.routed_circuit, line5.edges(), result.initial_layout)

    def test_initial_layout_dict_accepted(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = GreedyDistanceRouter(line5).run(circuit, {0: 2, 1: 3})
        assert result.swaps_added == 0

    def test_single_qubit_gates_follow_layout(self, line5):
        circuit = QuantumCircuit(2)
        circuit.h(1)
        result = GreedyDistanceRouter(line5).run(circuit, {0: 0, 1: 3})
        assert result.routed_circuit.gates[0].qubits == (3,)

    def test_final_layout_reflects_swaps(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = GreedyDistanceRouter(line5).run(circuit, {0: 0, 1: 2})
        assert result.swaps_added >= 1
        assert result.final_layout != result.initial_layout


class TestStateQueries:
    def test_result_metadata(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.mapper_name == "greedy-distance"
        assert result.runtime_seconds >= 0
        assert result.cost_evaluations > 0
        assert result.original_depth == 1

    def test_result_summary_keys(self, line5):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        summary = GreedyDistanceRouter(line5).run(circuit).summary()
        assert {"mapper", "swaps", "depth", "runtime_seconds"} <= set(summary)

    def test_depth_factor_uses_reference(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.depth_factor(reference_depth=1) == result.routed_depth
        with pytest.raises(ValueError):
            result.depth_factor(reference_depth=0)

    def test_barriers_pass_through(self, line5):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.cx(1, 2)
        result = GreedyDistanceRouter(line5).run(circuit)
        assert result.swaps_added == 0


class FixedCostRouter(RoutingEngine):
    """The engine's choice rule over one fixed cost per candidate."""

    def __init__(self, coupling, costs, seed=0):
        super().__init__(coupling, seed)
        self.costs = costs

    def swap_costs(self, state, candidates):
        assert len(candidates) == len(self.costs)
        return list(self.costs)


class TestChoiceRule:
    """``select_swap``: a running-best argmin with a 1e-12 tie tolerance."""

    def stalled_state(self, line5):
        # cx(0, 2) on a line under the identity layout: the candidate SWAPs
        # are the three edges touching physical qubits 0 and 2.
        circuit = QuantumCircuit(5)
        circuit.cx(0, 2)
        dag = CircuitDAG(circuit)
        state = RoutingState(
            circuit=circuit,
            coupling=line5,
            dag=dag,
            layout=Layout.trivial(5, 5),
            distance=line5.distance_table(),
            pending_predecessors={0: 0},
            front={0},
        )
        assert state.candidate_swaps() == [(0, 1), (1, 2), (2, 3)]
        return state

    def test_near_tie_chain_keeps_only_the_last_link(self, line5):
        # 1.0 - 0.6e-12 ties with 1.0; 1.0 - 1.2e-12 is below 1.0 by more
        # than the tolerance and starts a new tie list.  "Global minimum,
        # then everything within 1e-12 of it" would keep two candidates.
        router = FixedCostRouter(line5, [1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12])
        state = self.stalled_state(line5)
        rng_state = router._rng.getstate()
        assert router.select_swap(state) == (2, 3)
        assert router._rng.getstate() == rng_state
        assert state.cost_evaluations == 3

    def test_exact_ties_are_broken_by_the_engine_rng(self, line5):
        router = FixedCostRouter(line5, [2.0, 1.0, 1.0], seed=5)
        state = self.stalled_state(line5)
        expected = random.Random(5).choice([(1, 2), (2, 3)])
        assert router.select_swap(state) == expected
        assert router._rng.getstate() != random.Random(5).getstate()

    def test_only_qmap_has_its_own_choice_rule(self):
        specs = {spec.name: spec.factory for spec in router_specs()}
        assert specs.pop("qmap").select_swap is not RoutingEngine.select_swap
        for name, factory in specs.items():
            assert factory.select_swap is RoutingEngine.select_swap, name


class RecordingRouter(GreedyDistanceRouter):
    """Greedy routing that snapshots the engine's stall record at every stall."""

    def __init__(self, coupling, seed=0):
        super().__init__(coupling, seed)
        self.stalls = []

    def select_swap(self, state):
        decay = [state.decay.get(q) for q in range(state.circuit.num_qubits)]
        self.stalls.append(
            (state.last_swap, state.swaps_since_progress, decay, state.layout.copy())
        )
        return super().select_swap(state)


class TestStallRecord:
    """The engine owns the stall record: last SWAP, SWAPs since progress, decay."""

    def far_pair_then_dependent(self):
        # cx(0, 3) needs two SWAPs on a line; cx(0, 4) waits for it and is
        # still far afterwards, so the route stalls again after progress.
        circuit = QuantumCircuit(5)
        circuit.cx(0, 3)
        circuit.cx(0, 4)
        return circuit

    def test_swap_sets_the_record(self, line5):
        router = RecordingRouter(line5)
        router.run(self.far_pair_then_dependent())
        (last, count, decay, _), (last_after, count_after, decay_after, layout) = (
            router.stalls[:2]
        )
        assert (last, count, decay) == (None, 0, [1.0] * 5)
        assert last_after is not None and count_after == 1
        moved = {layout.logical_at[p] for p in last_after}
        for qubit, value in enumerate(decay_after):
            assert value == (1.0 + router.decay_increment if qubit in moved else 1.0)

    def test_executed_two_qubit_gate_resets_the_record(self, line5):
        router = RecordingRouter(line5)
        result = router.run(self.far_pair_then_dependent())
        # Two SWAPs bring cx(0, 3) together; the next stall is after it ran.
        assert [gate.name for gate in result.routed_circuit][:3] == ["swap", "swap", "cx"]
        last, count, decay, _ = router.stalls[2]
        assert (last, count, decay) == (None, 0, [1.0] * 5)

    def test_release_valve_routes_along_a_shortest_path(self):
        class ValveRouter(GreedyDistanceRouter):
            release_valve_threshold = 1
            choices = 0

            def select_swap(self, state):
                self.choices += 1
                return super().select_swap(state)

        grid = grid_topology(4, 4)
        circuit = QuantumCircuit(16)
        circuit.cx(0, 15)
        router = ValveRouter(grid)
        result = router.run(circuit)
        # The cost function picks the first SWAP; the valve picks the rest.
        assert router.choices == 1
        swaps = [gate.qubits for gate in result.routed_circuit if gate.is_swap]
        assert len(swaps) == grid.distance(0, 15) - 1
        layout = Layout.trivial(16, 16)
        layout.swap_physical(*swaps[0])
        for swap in swaps[1:]:
            path = grid.shortest_path(layout.phys_of[0], layout.phys_of[15])
            assert swap == (min(path[:2]), max(path[:2]))
            layout.swap_physical(*swap)
        verify_routing(circuit, result.routed_circuit, grid.edges(), result.initial_layout)

    def test_stall_without_a_two_qubit_front_gate_raises(self, line5):
        # A three-qubit gate on far operands is never executable and never
        # joins the unresolved front, so no SWAP can be chosen for it.
        circuit = QuantumCircuit(5)
        circuit.append(Gate("ccx", (0, 2, 4)))
        with pytest.raises(RouterError, match="no unresolved front gates"):
            GreedyDistanceRouter(line5).run(circuit)

    def test_a_swap_that_readies_a_three_qubit_gate_rescans(self):
        # ccx(0, 2, 5) never joins the unresolved front, and the SWAP (0, 1)
        # makes its first two operands adjacent while cx(1, 4) stays blocked:
        # the engine must rescan the front before the next stall.
        class FirstSwap(GreedyDistanceRouter):
            def select_swap(self, state):
                if state.last_swap is None:
                    return (0, 1)
                return super().select_swap(state)

        circuit = QuantumCircuit(6)
        circuit.append(Gate("ccx", (0, 2, 5)))
        circuit.cx(1, 4)
        result = FirstSwap(line_topology(6)).run(circuit)
        gates = list(result.routed_circuit)
        assert (gates[0].name, gates[0].qubits) == ("swap", (0, 1))
        assert (gates[1].name, gates[1].qubits) == ("ccx", (1, 2, 5))
        assert [gate.name for gate in gates].count("cx") == 1


class LayerRecordingRouter(GreedyDistanceRouter):
    """Greedy routing that logs the per-layer hook and every SWAP choice.

    Each entry is ``(event, gates executed so far)``.
    """

    def __init__(self, coupling, seed=0):
        super().__init__(coupling, seed)
        self.events = []
        self.state = None

    def on_front_layer(self, state):
        self.events.append(("layer", len(state.executed)))

    def select_swap(self, state):
        self.events.append(("choice", len(state.executed)))
        self.state = state
        return super().select_swap(state)


class TestFrontLayerHook:
    """``on_front_layer`` runs once per front layer; later stalls count as hits."""

    def test_hook_runs_before_the_first_choice_of_each_layer(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 3)
        circuit.cx(0, 4)
        circuit.cx(1, 4)
        router = LayerRecordingRouter(line5)
        router.run(circuit)
        events = router.events
        assert events[0][0] == "layer"
        for previous, (event, executed) in zip(events, events[1:]):
            # A layer starts exactly when a gate has executed since the last stall.
            assert (event == "layer") == (executed != previous[1])
            if event == "layer":
                assert previous[0] == "choice"
        layers = sum(event == "layer" for event, _ in events)
        choices = sum(event == "choice" for event, _ in events)
        assert layers >= 2 and choices > layers
        assert router.state.heuristic_cache_hits == choices - layers

    def test_release_valve_stalls_are_not_counted(self):
        class ValveRouter(LayerRecordingRouter):
            release_valve_threshold = 1

        grid = grid_topology(4, 4)
        circuit = QuantumCircuit(16)
        circuit.cx(0, 15)
        router = ValveRouter(grid)
        result = router.run(circuit)
        assert result.swaps_added > 1
        assert router.events == [("layer", 0), ("choice", 0)]
        assert router.state.heuristic_cache_hits == 0

    @pytest.mark.parametrize("router_class", [GreedyDistanceRouter, QmapLikeRouter])
    def test_routers_without_a_layer_lookahead_count_no_hits(self, router_class):
        class Probe(router_class):
            def select_swap(self, state):
                self.state = state
                return super().select_swap(state)

        router = Probe(grid_topology(3, 4))
        router.run(random_circuit(12, 60, seed=5))
        assert router.state.heuristic_cache_hits == 0


#: Router class -> (its memoised look-ahead attribute, a fresh build of it).
LAYER_LOOKAHEADS = {
    SabreRouter: ("_extended", lambda router, state: router._extended_set(state)),
    LightSabreRouter: ("_extended", lambda router, state: router._extended_set(state)),
    CirqLikeRouter: (
        "_upcoming",
        lambda router, state: state.upcoming_two_qubit(router.next_slice_size),
    ),
    TketLikeRouter: (
        "_upcoming",
        lambda router, state: state.upcoming_two_qubit(router.lookahead_size),
    ),
}


class TestLayerLookaheads:
    """The look-ahead a router builds per front layer equals a per-stall build."""

    @pytest.mark.parametrize(
        "router_class", list(LAYER_LOOKAHEADS), ids=lambda cls: cls.__name__
    )
    def test_memoised_set_equals_a_fresh_build_at_every_stall(self, router_class):
        attribute, fresh = LAYER_LOOKAHEADS[router_class]

        class Checking(router_class):
            hits = 0

            def select_swap(self, state):
                assert getattr(self, attribute) == fresh(self, state)
                self.hits = state.heuristic_cache_hits
                return super().select_swap(state)

        workloads = stress_corpus(cases=20, seed=31)
        workloads.append((sherbrooke(), smoke_fixture()[2].circuit))
        hits = 0
        for coupling, circuit in workloads:
            router = Checking(coupling, seed=1)
            router.run(circuit)
            hits += router.hits
        assert hits > 0


class TestUpcomingTwoQubit:
    def test_next_slice_in_front_order_up_to_the_limit(self, line5):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)  # 0: front
        circuit.cx(2, 3)  # 1: front
        circuit.h(0)  # 2: single-qubit successor of 0, skipped
        circuit.cx(1, 2)  # 3: successor of 0 and 1
        circuit.cx(3, 4)  # 4: successor of 1
        dag = CircuitDAG(circuit)
        pending = {index: len(dag.predecessors(index)) for index in dag.gate_indices}
        state = RoutingState(
            circuit=circuit,
            coupling=line5,
            dag=dag,
            layout=Layout.trivial(5, 5),
            distance=line5.distance_table(),
            pending_predecessors=pending,
            front={index for index, count in pending.items() if count == 0},
        )
        assert state.front == {0, 1}
        assert state.upcoming_two_qubit(8) == [3, 4]
        assert state.upcoming_two_qubit(1) == [3]
