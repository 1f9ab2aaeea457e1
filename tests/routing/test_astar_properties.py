"""Property tests for the incremental QMAP-style A* search.

The A* rewrite (deferred placement materialisation, incremental heuristic
deltas, partial expansion, adaptive node budget) is only allowed to change
*how fast* the search runs, never *what* it commits.  These tests pin
the search-theoretic properties that proof rests on:

* the summed-distance heuristic is admissible -- and exact -- for
  single-gate fronts, and the ``min-distance - 1`` bound is admissible for
  fronts of any width, on random couplings (checked against a
  breadth-first-search oracle over the full layout space);
* the closed set never re-expands a layout signature within one search;
* exhausting the node budget falls back to the deterministic greedy rule
  (identical output on every run);
* routing the same seed twice emits bit-for-bit identical gate sequences;
* the adaptive near-routable budget commits exactly the SWAPs the
  untightened search would;
* skipping the search when no goal is within ``max_sequence_length`` SWAPs
  commits exactly the SWAPs the search would have fallen back to;
* the whole router emits the gates of a textbook A* (binary heap, full
  placement copies, recomputed heuristic, plain node budget), and on a
  54-qubit fixture circuit, where nearly half the stalls fall back, every
  search expands the same placements in the same order.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

import pytest

from repro.analysis.perf_trajectory import smoke_fixture
from repro.baselines.qmap_like import QmapLikeRouter
from repro.benchgen.queko import generate_queko_circuit
from repro.benchgen.random_circuits import random_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.validation import verify_routing
from repro.hardware.backends import sherbrooke
from repro.hardware.coupling import CouplingGraph
from repro.hardware.topologies import grid_topology, line_topology


def random_connected_coupling(num_qubits: int, rng: random.Random) -> CouplingGraph:
    """A random connected device: a random spanning tree plus extra edges."""
    nodes = list(range(num_qubits))
    rng.shuffle(nodes)
    edges = {
        tuple(sorted((nodes[i], rng.choice(nodes[:i]))))
        for i in range(1, num_qubits)
    }
    for _ in range(num_qubits // 2):
        a, b = rng.sample(range(num_qubits), 2)
        edges.add(tuple(sorted((a, b))))
    return CouplingGraph(num_qubits, sorted(edges))


def optimal_swaps_to_goal(coupling, placement, pairs) -> int:
    """BFS oracle: minimum SWAPs until *some* pair is adjacent.

    Explores the full layout space (small devices only), applying every
    coupling edge as a SWAP of whatever the two locations hold.
    """
    distance = coupling.distance_table().rows
    edges = [tuple(edge) for edge in coupling.edges()]
    n = coupling.num_qubits

    def is_goal(pl):
        return any(distance[pl[q1]][pl[q2]] == 1 for q1, q2 in pairs)

    start = tuple(placement)
    if is_goal(start):
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, depth = queue.popleft()
        inverse = [-1] * n
        for logical, physical in enumerate(state):
            inverse[physical] = logical
        for a, b in edges:
            child = list(state)
            if inverse[a] >= 0:
                child[inverse[a]] = b
            if inverse[b] >= 0:
                child[inverse[b]] = a
            key = tuple(child)
            if key in seen:
                continue
            if is_goal(child):
                return depth + 1
            seen.add(key)
            queue.append((key, depth + 1))
    raise AssertionError("goal unreachable on a connected device")


class TestHeuristicAdmissibility:
    @pytest.mark.parametrize("trial", range(20))
    def test_single_pair_heuristic_is_exact(self, trial):
        """For one front gate the heuristic equals the optimal SWAP count."""
        rng = random.Random(100 + trial)
        num_qubits = rng.randint(4, 7)
        coupling = random_connected_coupling(num_qubits, rng)
        distance = coupling.distance_table().rows
        num_logical = rng.randint(2, num_qubits)
        placement = rng.sample(range(num_qubits), num_logical)
        pairs = [tuple(rng.sample(range(num_logical), 2))]
        heuristic = QmapLikeRouter._heuristic(distance, placement, pairs)
        optimal = optimal_swaps_to_goal(coupling, placement, pairs)
        assert heuristic <= optimal  # admissible
        assert heuristic == optimal  # and exact for a single pair

    @pytest.mark.parametrize("trial", range(20))
    def test_multi_pair_bound_is_admissible(self, trial):
        """``min pair distance - 1`` never overestimates for any front width."""
        rng = random.Random(300 + trial)
        num_qubits = rng.randint(4, 7)
        coupling = random_connected_coupling(num_qubits, rng)
        distance = coupling.distance_table().rows
        num_logical = rng.randint(4, num_qubits)
        placement = rng.sample(range(num_qubits), num_logical)
        logicals = list(range(num_logical))
        rng.shuffle(logicals)
        pairs = [
            (logicals[i], logicals[i + 1])
            for i in range(0, num_logical - 1, 2)
        ]
        bound = QmapLikeRouter._admissible_bound(distance, placement, pairs)
        assert bound <= optimal_swaps_to_goal(coupling, placement, pairs)


class RecordingRouter(QmapLikeRouter):
    """Asserts, per search, that no layout signature is expanded twice."""

    record_expansions = True

    def select_swap(self, state):
        swap = super().select_swap(state)
        keys = self.last_expanded_keys
        assert keys is not None and len(keys) == len(set(keys)), (
            "closed set re-expanded a layout signature"
        )
        return swap


class SkipCountingRouter(RecordingRouter):
    """Counts searches skipped for an unreachable goal (nothing expanded)."""

    def __init__(self, coupling, seed=0):
        super().__init__(coupling, seed)
        self.skipped = 0

    def select_swap(self, state):
        swap = super().select_swap(state)
        # A search always expands its root, so an empty trace is a skip.
        self.skipped += self.last_expanded_keys == []
        return swap


class NeverSkippingRouter(QmapLikeRouter):
    """Searches even when no goal is within ``max_sequence_length`` SWAPs."""

    @staticmethod
    def _admissible_bound(distance, placement, pairs):
        return 0


class ExhaustedBudgetRouter(QmapLikeRouter):
    """Budget of one: every search exhausts after the root expansion."""

    node_budget = 1


class UntightenedRouter(QmapLikeRouter):
    """Adaptive near-routable tightening disabled."""

    near_routable_budget = 10**9


class ReferenceAStarRouter(QmapLikeRouter):
    """The textbook search the incremental one must reproduce gate for gate.

    A binary heap on ``(f, counter)``, a full placement copy per child with
    the summed-distance heuristic recomputed, a closed set on placements,
    the plain node budget (no near-routable tightening, no unreachable-goal
    skip, no partial expansion), and the greedy rule when the budget runs
    out.  Each search leaves its expanded placements in
    :attr:`last_expanded_keys` and whether it fell back in :attr:`fell_back`.
    """

    def select_swap(self, state):
        pairs = state.front_pairs()
        distance = state.distance_rows()
        edges = self.coupling.edges()

        def summed(placement):
            return sum(distance[placement[q1]][placement[q2]] for q1, q2 in pairs)

        def candidates(placement):
            footprint = {placement[q] for pair in pairs for q in pair}
            return [(a, b) for a, b in sorted(edges) if a in footprint or b in footprint]

        def swapped(placement, a, b):
            return [b if p == a else a if p == b else p for p in placement]

        start = list(state.layout.phys_of)
        frontier = [(summed(start) - len(pairs), 0, 0, start, None)]
        counter = 1
        closed = set()
        expanded = 0
        self.last_expanded_keys = []
        self.fell_back = False
        while frontier and expanded < self.node_budget:
            _, _, cost, placement, first = heapq.heappop(frontier)
            if tuple(placement) in closed:
                continue
            closed.add(tuple(placement))
            self.last_expanded_keys.append(tuple(placement))
            expanded += 1
            if cost and any(distance[placement[q1]][placement[q2]] == 1 for q1, q2 in pairs):
                return first
            if cost >= self.max_sequence_length:
                continue
            for a, b in candidates(placement):
                child = swapped(placement, a, b)
                estimate = cost + 1 + summed(child) - len(pairs)
                heapq.heappush(frontier, (estimate, counter, cost + 1, child, first or (a, b)))
                counter += 1
        self.fell_back = True
        return min(
            candidates(start), key=lambda edge: summed(swapped(start, *edge))
        )


class LockstepRouter(RecordingRouter):
    """Runs :class:`ReferenceAStarRouter` on the state of every stall.

    Asserts that both commit the same SWAP and that every search the
    incremental router does not skip expands the same placements in the same
    order.  Counts the stalls, the skipped searches and the reference's
    fallbacks.
    """

    def __init__(self, coupling, seed=0):
        super().__init__(coupling, seed)
        self.reference = ReferenceAStarRouter(coupling, seed)
        self.stalls = self.skipped = self.fallbacks = 0

    def select_swap(self, state):
        swap = super().select_swap(state)
        keys = self.last_expanded_keys
        assert self.reference.select_swap(state) == swap
        if keys:
            assert keys == self.reference.last_expanded_keys
        self.stalls += 1
        self.skipped += not keys
        self.fallbacks += self.reference.fell_back
        return swap


def _route_gates(router_cls, circuit, coupling, seed=0, **kwargs):
    result = router_cls(coupling, seed=seed, **kwargs).run(circuit)
    return [(g.name, g.qubits, g.params) for g in result.routed_circuit]


class TestSearchProperties:
    def workloads(self):
        grid = grid_topology(3, 4)
        queko = generate_queko_circuit(grid_topology(3, 3), depth=6, seed=4).circuit
        rand = random_circuit(8, 30, seed=9)
        return [(queko, grid), (rand, grid)]

    def test_closed_set_never_reexpands(self):
        for circuit, coupling in self.workloads():
            RecordingRouter(coupling).run(circuit)

    def test_budget_exhaustion_falls_back_deterministically(self):
        for circuit, coupling in self.workloads():
            first = _route_gates(ExhaustedBudgetRouter, circuit, coupling)
            second = _route_gates(ExhaustedBudgetRouter, circuit, coupling)
            assert first == second
            result = ExhaustedBudgetRouter(coupling).run(circuit)
            verify_routing(
                circuit,
                result.routed_circuit,
                coupling.edges(),
                result.initial_layout,
            )

    def test_same_seed_twice_is_bit_for_bit_identical(self):
        for circuit, coupling in self.workloads():
            for seed in (0, 13):
                assert _route_gates(
                    QmapLikeRouter, circuit, coupling, seed=seed
                ) == _route_gates(QmapLikeRouter, circuit, coupling, seed=seed)

    def test_adaptive_budget_matches_untightened_search(self):
        """Tightening the budget on nearly-routable fronts is outcome-free."""
        for circuit, coupling in self.workloads():
            assert _route_gates(QmapLikeRouter, circuit, coupling) == _route_gates(
                UntightenedRouter, circuit, coupling
            )

    def far_workloads(self):
        """Operands far apart, so the first searches have no reachable goal."""
        line = line_topology(12)
        on_line = QuantumCircuit(12)
        on_line.cx(0, 11)
        on_line.cx(1, 10)
        on_line.cx(0, 1)
        grid = grid_topology(5, 5)
        on_grid = QuantumCircuit(25)
        on_grid.cx(0, 24)
        on_grid.cx(4, 20)
        on_grid.cx(0, 4)
        return [(on_line, line), (on_grid, grid)]

    def test_unreachable_goal_skip_commits_the_searched_swaps(self):
        for circuit, coupling in self.far_workloads():
            skipping = QmapLikeRouter(coupling).run(circuit)
            searching = NeverSkippingRouter(coupling).run(circuit)
            assert [(g.name, g.qubits) for g in skipping.routed_circuit] == [
                (g.name, g.qubits) for g in searching.routed_circuit
            ]
            assert skipping.cost_evaluations < searching.cost_evaluations

    def test_skip_path_still_records_expansions(self):
        for circuit, coupling in self.far_workloads():
            router = SkipCountingRouter(coupling)
            router.run(circuit)
            assert router.skipped > 0

    def test_nearly_routable_front_commits_the_optimal_swap(self):
        """Single pair at distance 2 resolves with exactly one SWAP."""
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        line = line_topology(4)
        result = QmapLikeRouter(line).run(circuit, initial_layout={0: 0, 1: 2})
        assert result.swaps_added == 1


class TestReferenceSearch:
    """The incremental router against :class:`ReferenceAStarRouter`."""

    def random_workloads(self):
        workloads = []
        for trial in range(8):
            rng = random.Random(4000 + trial)
            coupling = random_connected_coupling(rng.randint(6, 16), rng)
            queko = generate_queko_circuit(coupling, depth=rng.randint(3, 8), seed=trial)
            workloads.append((queko.circuit, coupling))
            circuit = random_circuit(
                rng.randint(4, coupling.num_qubits), 60, seed=rng.randrange(10**6)
            )
            workloads.append((circuit, coupling))
        return workloads

    def test_matches_reference_on_every_workload(self):
        properties = TestSearchProperties()
        workloads = (
            properties.workloads() + properties.far_workloads() + self.random_workloads()
        )
        for circuit, coupling in workloads:
            assert _route_gates(QmapLikeRouter, circuit, coupling) == _route_gates(
                ReferenceAStarRouter, circuit, coupling
            )

    def test_lockstep_on_a_fixture_circuit_where_searches_fall_back(self):
        # The random workloads above are small devices whose searches almost
        # always find a goal; on 127 qubits nearly half the stalls exhaust
        # the node budget (or skip the search) and fall back.
        router = LockstepRouter(sherbrooke())
        router.run(smoke_fixture()[0].circuit)
        assert (router.stalls, router.skipped, router.fallbacks) == (241, 32, 109)

    def test_partial_expansion_scores_fewer_candidates(self):
        # 151,503 cost evaluations when every expansion scored all its
        # candidates; the count is exact, so it repeats from run to run.
        circuit = smoke_fixture()[0].circuit
        counts = [
            QmapLikeRouter(sherbrooke()).run(circuit).cost_evaluations for _ in range(2)
        ]
        assert counts[0] == counts[1] < 151_503
