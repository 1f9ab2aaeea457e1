"""Tests for the Qlosure cost function M(s)."""

import random

import pytest

from repro.analysis.perf_trajectory import smoke_fixture
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.core.config import QlosureConfig
from repro.core.cost import WindowScorer
from repro.core.error_aware import ErrorAwareQlosureRouter
from repro.core.lookahead import LookaheadWindow, build_lookahead
from repro.core.router import QlosureRouter
from repro.hardware.backends import sherbrooke
from repro.hardware.topologies import grid_topology, line_topology
from repro.routing.decay import DecayTable
from repro.routing.layout import Layout

from tests.core.test_lookahead import make_state
from tests.routing.test_astar_properties import random_connected_coupling


def scorer_at(state, window, weights, decay, config) -> WindowScorer:
    """A scorer for ``window``, re-based at the state's current layout."""
    scorer = WindowScorer(state, window, weights, decay, config)
    scorer.rebase()
    return scorer


def tentative_physical(state, logical: int, swap: tuple[int, int]) -> int:
    """Physical location of ``logical`` under the tentative mapping ``phi o s``."""
    current = state.layout.phys_of[logical]
    p1, p2 = swap
    if current == p1:
        return p2
    if current == p2:
        return p1
    return current


def blocked_cnot_state(num_qubits: int = 5):
    """A single CNOT between the two ends of a line (distance 4)."""
    device = line_topology(num_qubits)
    circuit = QuantumCircuit(num_qubits)
    circuit.cx(0, num_qubits - 1)
    return make_state(circuit, device)


class TestTentativePhysical:
    def test_swapped_qubits_move(self):
        state = blocked_cnot_state()
        assert tentative_physical(state, 0, (0, 1)) == 1
        assert tentative_physical(state, 1, (0, 1)) == 0

    def test_untouched_qubits_stay(self):
        state = blocked_cnot_state()
        assert tentative_physical(state, 3, (0, 1)) == 3


class TestSwapCost:
    def test_helpful_swap_scores_lower(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        weights = {0: 5}
        helpful = scorer_at(state, window, weights, {}, config).score((0, 1))
        useless = scorer_at(state, window, weights, {}, config).score((1, 2))
        assert helpful < useless

    def test_weights_scale_contribution(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        low = scorer_at(state, window, {0: 1}, {}, config).score((1, 2))
        high = scorer_at(state, window, {0: 10}, {}, config).score((1, 2))
        assert high == pytest.approx(10 * low)

    def test_weights_ignored_when_disabled(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False, use_dependence_weights=False)
        a = scorer_at(state, window, {0: 1}, {}, config).score((1, 2))
        b = scorer_at(state, window, {0: 10}, {}, config).score((1, 2))
        assert a == pytest.approx(b)

    def test_decay_multiplies_score(self):
        state = blocked_cnot_state()
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=True)
        without_decay = scorer_at(state, window, {0: 1}, {0: 1.0, 1: 1.0}, config).score((0, 1))
        with_decay = scorer_at(state, window, {0: 1}, {0: 1.5, 1: 1.0}, config).score((0, 1))
        assert with_decay == pytest.approx(1.5 * without_decay)

    def test_decay_of_unoccupied_location_defaults_to_one(self):
        device = line_topology(6)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=True)
        # Physical qubit 3 hosts no logical qubit.
        cost = scorer_at(state, window, {0: 1}, {0: 2.0, 1: 2.0, 2: 2.0}, config).score((2, 3))
        assert cost > 0


class TestLayerFactors:
    def _two_layer_state(self):
        device = line_topology(6)
        circuit = QuantumCircuit(6)
        circuit.cx(0, 3)  # front layer (blocked)
        circuit.cx(3, 5)  # second layer
        return make_state(circuit, device)

    def test_layer_discount_reduces_later_layer_influence(self):
        state = self._two_layer_state()
        window = build_lookahead(state, lookahead_constant=5)
        assert len(window.layers) == 2
        config_with = QlosureConfig(use_decay=False, use_dependence_weights=False)
        config_without = QlosureConfig(
            use_decay=False, use_dependence_weights=False, use_layer_discount=False
        )
        scorer_with = scorer_at(state, window, {}, {}, config_with)
        scorer_without = scorer_at(state, window, {}, {}, config_without)
        # Discounting only shrinks the second layer's contribution.
        assert scorer_with._base < scorer_without._base

    def test_layer_normalization_divides_by_layer_size(self):
        device = line_topology(8)
        circuit = QuantumCircuit(8)
        circuit.cx(0, 4)
        circuit.cx(1, 5)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=5)
        config_norm = QlosureConfig(use_decay=False, use_dependence_weights=False)
        config_raw = QlosureConfig(
            use_decay=False, use_dependence_weights=False, use_layer_normalization=False
        )
        normalized = scorer_at(state, window, {}, {}, config_norm)._base
        raw = scorer_at(state, window, {}, {}, config_raw)._base
        assert normalized == pytest.approx(raw / 2)


class TestWindowScorer:
    def test_incremental_matches_direct_evaluation(self):
        device = line_topology(7)
        circuit = QuantumCircuit(7)
        circuit.cx(0, 6)
        circuit.cx(6, 3)
        circuit.cx(3, 1)
        state = make_state(circuit, device)
        window = build_lookahead(state, lookahead_constant=4)
        weights = {0: 3, 1: 2, 2: 1}
        decay = {q: 1.0 + 0.01 * q for q in range(7)}
        config = QlosureConfig()
        scorer = scorer_at(state, window, weights, decay, config)
        for candidate in state.candidate_swaps():
            direct = scorer_at(state, window, weights, decay, config).score(candidate)
            assert scorer.score(candidate) == pytest.approx(direct)

    def test_unrelated_swap_keeps_base_score(self):
        state = blocked_cnot_state(6)
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        scorer = scorer_at(state, window, {0: 1}, {}, config)
        # A swap between empty far-away qubits leaves every window gate alone.
        assert scorer.score((2, 3)) == pytest.approx(scorer._base)

    def test_rebase_follows_the_layout(self):
        state = blocked_cnot_state(6)
        window = build_lookahead(state, lookahead_constant=3)
        config = QlosureConfig(use_decay=False)
        scorer = scorer_at(state, window, {0: 1}, {}, config)
        assert scorer._base == 5.0
        state.layout.swap_physical(0, 1)
        # The index is per window; the distances are read per stall.
        assert scorer._base == 5.0
        scorer.rebase()
        assert scorer._base == 4.0
        assert scorer.score((1, 2)) == 3.0


#: Every ablation of the cost, and each factor switched off on its own.
ORACLE_CONFIGS = {
    "full": QlosureConfig.full(),
    "distance-only": QlosureConfig.distance_only(),
    "layer-adjusted": QlosureConfig.layer_adjusted(),
    "dependency-weighted": QlosureConfig.dependency_weighted(),
    "no-discount": QlosureConfig(use_layer_discount=False),
    "no-normalization": QlosureConfig(use_layer_normalization=False),
}


def brute_force_layer_sum(state, swap, window, weights, config) -> float:
    """``sum_l Gamma_l / |G_l|`` from the module docstring, under ``phi o swap``.

    ``swap=None`` evaluates the current layout.
    """
    distance = state.coupling.distance_matrix()

    def physical(logical):
        if swap is None:
            return state.layout.phys_of[logical]
        return tentative_physical(state, logical, swap)

    layer_sum = 0.0
    for layer_index, layer in enumerate(window.layers, start=1):
        gamma = 0.0
        for gate_index in layer:
            q1, q2 = state.gate(gate_index).qubits
            omega = max(weights.get(gate_index, 0), 1) if config.use_dependence_weights else 1
            discount = layer_index if config.use_layer_discount else 1
            gamma += omega * distance[physical(q1)][physical(q2)] / discount
        layer_sum += gamma / len(layer) if config.use_layer_normalization else gamma
    return layer_sum


def brute_force_cost(state, swap, window, weights, decay, config) -> float:
    """``M(s)``: the layer sum times the larger decay of the two moved qubits."""
    layer_sum = brute_force_layer_sum(state, swap, window, weights, config)
    if not config.use_decay:
        return layer_sum
    logical_at = state.layout.logical_at
    return layer_sum * max(decay.get(logical_at[p], 1.0) for p in swap)


def random_state(rng: random.Random):
    """A random circuit on a random connected device under a random layout."""
    device = random_connected_coupling(rng.randint(4, 12), rng)
    num_logical = rng.randint(3, device.num_qubits)
    circuit = random_circuit(
        num_logical, rng.randint(10, 60), two_qubit_fraction=0.85, seed=rng.randrange(10**6)
    )
    state = make_state(circuit, device)
    placement = rng.sample(range(device.num_qubits), num_logical)
    state.layout = Layout(num_logical, device.num_qubits, placement)
    state.mark_front_dirty()
    return state


class TestScorerOracle:
    """The incremental scorer against a fresh evaluation of ``M(s)``."""

    @pytest.mark.parametrize("variant", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("trial", range(15))
    def test_score_matches_brute_force_on_every_edge(self, variant, trial):
        config = ORACLE_CONFIGS[variant]
        rng = random.Random(1000 * trial + len(variant))
        state = random_state(rng)
        window = build_lookahead(
            state, rng.randint(2, 8), front_only=config.lookahead_only_front
        )
        weights = {
            index: rng.randint(0, 30)
            for index in range(len(state.circuit.gates))
            if rng.random() < 0.9
        }
        decay = {
            logical: 1.0 + rng.choice((0.0, 0.001, 0.002, 0.005)) * rng.randint(0, 5)
            for logical in range(state.circuit.num_qubits)
        }
        scorer = WindowScorer(state, window, weights, decay, config)
        edges = state.coupling.edges()
        # One scorer for the window: re-based after SWAPs, as at the later
        # stalls of a front layer.
        for stall in range(3):
            if stall:
                state.layout.swap_physical(*rng.choice(edges))
            scorer.rebase()
            assert scorer._base == pytest.approx(
                brute_force_layer_sum(state, None, window, weights, config), rel=1e-12
            )
            for a, b in edges:
                for swap in ((a, b), (b, a)):
                    expected = brute_force_cost(state, swap, window, weights, decay, config)
                    assert scorer.score(swap) == pytest.approx(expected, rel=1e-12)


def lockstep(router_class):
    """``router_class`` checking its layer's scorer against a fresh one at every stall.

    At each stall the router scores the candidates with the scorer its
    ``on_front_layer`` built at the layer's first stall, then builds a second
    scorer at the current stall through the same hook and asserts equal
    costs.  ``reused`` counts the stalls whose scorer was built earlier and
    ``deltas_reused`` the candidates whose kept scorer took its delta from
    the layer's previous stall (a fresh scorer reuses none).
    """

    class Lockstep(router_class):
        stalls = reused = deltas_reused = 0

        def swap_costs(self, state, candidates):
            costs = super().swap_costs(state, candidates)
            layer_scorer = self._scorer
            self.on_front_layer(state)
            fresh = super().swap_costs(state, candidates)
            self._scorer = layer_scorer
            assert costs == fresh
            self.stalls += 1
            self.reused = state.heuristic_cache_hits
            self.deltas_reused = state.deltas_reused
            return costs

    return Lockstep


class ValveAtTwo(QlosureRouter):
    """Qlosure with the release valve opening after two SWAPs without progress."""

    release_valve_threshold = 2


ROUTER_CLASSES = [QlosureRouter, ErrorAwareQlosureRouter, ValveAtTwo]


class TestLayerScorerLockstep:
    """A scorer kept for its whole front layer scores like one built per stall."""

    @pytest.mark.parametrize("router_class", ROUTER_CLASSES, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("variant", sorted(ORACLE_CONFIGS))
    def test_random_couplings(self, variant, router_class):
        # Float error distances (ErrorAwareQlosureRouter) and layers cut short
        # by the release valve (ValveAtTwo) keep the same costs too.
        rng = random.Random(len(variant))
        stalls = reused = deltas_reused = 0
        for trial in range(12):
            device = random_connected_coupling(rng.randint(5, 14), rng)
            circuit = random_circuit(
                rng.randint(3, device.num_qubits), rng.randint(20, 80), seed=trial
            )
            router = lockstep(router_class)(device, config=ORACLE_CONFIGS[variant])
            router.run(circuit)
            stalls += router.stalls
            reused += router.reused
            deltas_reused += router.deltas_reused
        assert reused > 0 and stalls > reused
        assert deltas_reused > 0

    @pytest.mark.parametrize("router_class", ROUTER_CLASSES, ids=lambda cls: cls.__name__)
    def test_fixture(self, router_class):
        router = lockstep(router_class)(sherbrooke())
        router.run(smoke_fixture()[2].circuit)
        assert router.reused > 0
        assert router.deltas_reused > 0


class TestKeptTerms:
    """``WindowScorer.costs`` reuses the terms one SWAP left unchanged, and no others."""

    def stalled(self, seed):
        device = grid_topology(6, 6)
        circuit = random_circuit(36, 150, two_qubit_fraction=0.9, seed=seed)
        state = make_state(circuit, device)
        state.decay = DecayTable(circuit.num_qubits)
        window = build_lookahead(state, lookahead_constant=4)
        weights = state.dag.descendant_counts()
        return state, window, weights

    @pytest.mark.parametrize("seed", range(4))
    def test_a_gap_of_several_swaps_rescores_every_candidate(self, seed):
        state, window, weights = self.stalled(seed)
        config = QlosureConfig()
        engine = QlosureRouter(state.coupling)
        scorer = WindowScorer(state, window, weights, state.decay, config)
        rng = random.Random(seed)

        def stall():
            candidates = state.candidate_swaps()
            scorer.rebase()
            costs = scorer.costs(candidates)
            fresh = scorer_at(state, window, weights, state.decay, config)
            assert costs == [fresh.score(candidate) for candidate in candidates]
            return candidates

        candidates = stall()
        assert state.deltas_reused == 0
        for _ in range(6):
            # One SWAP, committed the way the engine commits it.
            engine._apply_swap(state, rng.choice(candidates))
            candidates = stall()
        assert state.deltas_reused > 0
        # Two SWAPs between stalls, which the engine loop never commits but a
        # router committing SWAPs outside select_swap could: nothing kept.
        before = state.deltas_reused
        engine._apply_swap(state, rng.choice(candidates))
        engine._apply_swap(state, rng.choice(state.candidate_swaps()))
        stall()
        assert state.deltas_reused == before
