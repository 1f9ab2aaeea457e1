"""The shared routing loop: execute ready gates, insert SWAPs when stuck.

Every router in this repository (Qlosure and the baselines) follows the same
outer loop, which matches Algorithm 1 of the paper:

1. gates whose dependences are satisfied and whose operands are adjacent
   under the current layout are executed immediately;
2. when no gate can be executed, the router-specific heuristic picks one
   SWAP, which is applied to the layout and appended to the output circuit;
3. repeat until every gate has been executed.

Concrete routers override :meth:`RoutingEngine.select_swap` (and optionally
the execution hooks) to implement their SWAP-selection policy.

Incremental-state contract
--------------------------

:class:`RoutingState` is an *incremental* kernel: the unresolved front layer,
its physical-qubit footprint and the candidate-SWAP set are cached and kept
in sync with gate retirement and SWAP application instead of being recomputed
on every query.  Heuristics plugged into the engine must respect these rules:

* **Read-only views.**  :meth:`RoutingState.unresolved_front`,
  :meth:`RoutingState.front_physical_qubits` and
  :meth:`RoutingState.candidate_swaps` return internal caches; treat them as
  immutable snapshots valid until the next mutation and never modify them in
  place.
* **Mutate through the engine.**  The layout and the front set must only be
  changed through the engine loop (gate retirement, committed SWAPs), which
  routes every mutation through :meth:`RoutingState.note_gate_retired` /
  :meth:`RoutingState.note_swap_applied`.  A heuristic that speculatively
  mutates ``state.layout`` must call :meth:`RoutingState.mark_front_dirty`
  afterwards -- better, it should score tentative placements arithmetically
  (see :func:`repro.core.cost.tentative_physical`) and never touch the
  shared layout at all.
* **Precomputed operand arrays.**  ``state.op_pairs[i]`` holds the two
  qubit operands of gate ``i`` (``None`` for single-qubit gates and
  barriers) and ``state.is_2q[i]`` flags exactly-two-qubit gates; cost loops
  should consume these instead of re-reading ``Gate`` objects.
* **Per-layer memoisation.**  :meth:`RoutingState.front_pairs` returns the
  *logical* operand pairs of the unresolved front gates as a cached list
  (same order as :meth:`RoutingState.unresolved_front`), and
  :meth:`RoutingState.front_signature` a hashable key identifying the
  current front layer.  Search-based heuristics should key any
  memoisation that must survive a committed SWAP (layouts change, the
  front layer does not) on the signature instead of recomputing
  per-layer tables from scratch.
* **Delta scoring.**  Distance-sum costs score candidates with a
  :class:`PairDeltaScorer` built once per stall from the current physical
  operand pairs: a SWAP ``(a, b)`` only moves the pairs with an endpoint on
  ``a`` or ``b``, so each candidate costs O(pairs on two qubits) instead of
  a re-summation of the whole front and look-ahead.  Integer distances make
  the delta sum equal to a fresh summation, so the committed SWAP is the
  same.

Replaying the same seed against the same circuit and device reproduces the
emitted gate sequence bit for bit: caches only memoise what the non-cached
code would have computed at the same point, and tie-breaking still consumes
the engine RNG in the same order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDAG
from repro.circuit.gate import Gate
from repro.hardware.coupling import CouplingGraph
from repro.obs.trace import current_tracer
from repro.routing.layout import Layout
from repro.routing.result import RoutingResult


class RouterError(RuntimeError):
    """Raised when a router cannot make progress (should never happen on connected devices)."""


class PairDeltaScorer:
    """Summed pair distances under every candidate SWAP, from touched pairs only.

    Built once per stall from the *current* physical operand pairs.  It holds
    their summed distance (:attr:`base`) and a per-physical-qubit index
    (:attr:`touching`) of ``(other endpoint, old distance)`` entries, one per
    pair endpoint.  A SWAP ``(a, b)`` only moves the pairs with an endpoint
    on ``a`` or ``b``, so :meth:`swapped_sum` adjusts ``base`` by those
    pairs' change and never re-sums the rest.  The pair lying on the edge
    ``(a, b)`` itself keeps its distance and is skipped.  Distances here are
    integers (:class:`~repro.hardware.distance.FlatDistanceTable`), so
    ``base - sum(old) + sum(new)`` equals a fresh summation exactly.
    :meth:`swapped_longest` answers the minimax form of the same query.
    """

    __slots__ = ("base", "touching", "_distance", "_ranked")

    def __init__(self, pairs, distance):
        base = 0
        touching: dict[int, list[tuple[int, int]]] = {}
        for p1, p2 in pairs:
            old = distance[p1][p2]
            base += old
            touching.setdefault(p1, []).append((p2, old))
            touching.setdefault(p2, []).append((p1, old))
        #: Summed distance of the pairs under the current layout.
        self.base = base
        #: physical qubit -> ``(other endpoint, old distance)`` per pair on it.
        self.touching = touching
        self._distance = distance
        self._ranked: list[tuple[int, int, int]] | None = None

    @classmethod
    def for_gates(cls, state: "RoutingState", gates) -> "PairDeltaScorer":
        """Scorer over two-qubit ``gates`` (circuit indices) at the current layout."""
        phys_of = state.layout.phys_of
        return cls(
            (
                (phys_of[q1], phys_of[q2])
                for q1, q2 in map(state.op_pairs.__getitem__, gates)
            ),
            state.distance_rows(),
        )

    def swapped_sum(self, a: int, b: int) -> int:
        """Summed pair distances with physical qubits ``a`` and ``b`` exchanged."""
        total = self.base
        touching = self.touching
        entries = touching.get(a)
        if entries:
            row = self._distance[b]
            for other, old in entries:
                if other != b:
                    total += row[other] - old
        entries = touching.get(b)
        if entries:
            row = self._distance[a]
            for other, old in entries:
                if other != a:
                    total += row[other] - old
        return total

    def swapped_longest(self, a: int, b: int) -> int:
        """Largest pair distance with physical qubits ``a`` and ``b`` exchanged.

        The larger of the touched pairs' new distances and the largest
        untouched distance, found by scanning the pairs by decreasing old
        distance past the touched ones.  For qubit-disjoint pairs (a front
        layer) a SWAP touches at most two, so the scan stops within three.
        """
        longest = 0
        touching = self.touching
        for moved, to in ((a, b), (b, a)):
            entries = touching.get(moved)
            if entries:
                row = self._distance[to]
                for other, old in entries:
                    new = old if other == to else row[other]
                    if new > longest:
                        longest = new
        ranked = self._ranked
        if ranked is None:
            ranked = self._ranked = sorted(
                (
                    (old, moved, other)
                    for moved, entries in touching.items()
                    for other, old in entries
                    if moved < other
                ),
                reverse=True,
            )
        for old, p1, p2 in ranked:
            if old <= longest:
                break
            if p1 != a and p1 != b and p2 != a and p2 != b:
                return old
        return longest


@dataclass
class RoutingState:
    """Mutable traversal state shared between the engine and the heuristics."""

    circuit: QuantumCircuit
    coupling: CouplingGraph
    dag: CircuitDAG
    layout: Layout
    distance: Sequence[Sequence[float]]
    pending_predecessors: dict[int, int]
    front: set[int] = field(default_factory=set)
    executed: set[int] = field(default_factory=set)
    emitted: list[Gate] = field(default_factory=list)
    swaps_since_progress: int = 0
    cost_evaluations: int = 0

    def __post_init__(self):
        gates = self.circuit.gates
        #: Per-gate operand pair (first two qubits) or None for <2-qubit gates.
        self.op_pairs: list[tuple[int, int] | None] = [
            (gate.qubits[0], gate.qubits[1])
            if gate.num_qubits >= 2 and not gate.is_barrier
            else None
            for gate in gates
        ]
        #: Per-gate flag: acts on exactly two qubits (the routing-relevant set).
        self.is_2q: list[bool] = [gate.is_two_qubit for gate in gates]
        self._num_physical = self.coupling.num_qubits
        self._adjacency = self.coupling.adjacency
        self._incident_edges = self.coupling.incident_edges
        self._front_dirty = True
        self._unresolved: list[int] = []
        self._front_pairs: list[tuple[int, int]] = []
        self._front_physical: set[int] = set()
        self._candidates: list[tuple[int, int]] = []
        # Kernel telemetry (reported via the tracer only -- never serialized
        # into results, so traced and untraced payloads stay bit-identical).
        self.front_rebuilds = 0
        self.candidate_builds = 0
        self.candidate_total = 0
        self.heuristic_cache_hits = 0

    def gate(self, index: int) -> Gate:
        """The gate at circuit index ``index``."""
        return self.circuit[index]

    def is_executable(self, index: int) -> bool:
        """True when the gate's operands are adjacent under the current layout."""
        pair = self.op_pairs[index]
        if pair is None:
            return True
        phys_of = self.layout.phys_of
        return (
            self._adjacency[phys_of[pair[0]] * self._num_physical + phys_of[pair[1]]]
            == 1
        )

    # -- cached front-layer views -------------------------------------------

    def mark_front_dirty(self) -> None:
        """Invalidate the cached front-layer views (rebuilt lazily on next read)."""
        self._front_dirty = True

    def note_gate_retired(self, index: int) -> None:
        """Record a front-set change: the cached views must be rebuilt."""
        self._front_dirty = True

    def note_swap_applied(self, p1: int, p2: int) -> None:
        """Fold a committed SWAP into the cached views.

        Front membership is untouched by a SWAP, so while no unresolved gate
        became executable the cached unresolved list stays valid verbatim and
        only the physical footprint (and with it the candidate set) needs
        refreshing.  As soon as a gate turns executable the engine is about to
        retire it, so the caches are simply invalidated.
        """
        if self._front_dirty:
            return
        phys_of = self.layout.phys_of
        adjacency = self._adjacency
        n = self._num_physical
        op_pairs = self.op_pairs
        for index in self._unresolved:
            q1, q2 = op_pairs[index]
            if adjacency[phys_of[q1] * n + phys_of[q2]]:
                self._front_dirty = True
                return
        front_physical: set[int] = set()
        for index in self._unresolved:
            q1, q2 = op_pairs[index]
            front_physical.add(phys_of[q1])
            front_physical.add(phys_of[q2])
        self._front_physical = front_physical
        self._candidates = self._build_candidates(front_physical)

    def _refresh_front(self) -> None:
        phys_of = self.layout.phys_of
        adjacency = self._adjacency
        n = self._num_physical
        op_pairs = self.op_pairs
        is_2q = self.is_2q
        unresolved: list[int] = []
        front_pairs: list[tuple[int, int]] = []
        front_physical: set[int] = set()
        for index in self.front:
            if not is_2q[index]:
                continue
            q1, q2 = op_pairs[index]
            p1 = phys_of[q1]
            p2 = phys_of[q2]
            if adjacency[p1 * n + p2]:
                continue
            unresolved.append(index)
            front_pairs.append((q1, q2))
            front_physical.add(p1)
            front_physical.add(p2)
        self._unresolved = unresolved
        self._front_pairs = front_pairs
        self._front_physical = front_physical
        self._candidates = self._build_candidates(front_physical)
        self._front_dirty = False
        self.front_rebuilds += 1

    def _build_candidates(self, front_physical: set[int]) -> list[tuple[int, int]]:
        incident = self._incident_edges
        candidates = sorted(
            set(chain.from_iterable(map(incident.__getitem__, front_physical)))
        )
        self.candidate_builds += 1
        self.candidate_total += len(candidates)
        return candidates

    def kernel_counters(self) -> dict[str, int]:
        """The routing-kernel work counters accumulated during one run."""
        return {
            "cost_evaluations": self.cost_evaluations,
            "front_rebuilds": self.front_rebuilds,
            "candidate_builds": self.candidate_builds,
            "candidate_total": self.candidate_total,
            "heuristic_cache_hits": self.heuristic_cache_hits,
        }

    def unresolved_front(self) -> list[int]:
        """Front-layer two-qubit gates that are not executable yet (cached view)."""
        if self._front_dirty:
            self._refresh_front()
        return self._unresolved

    def front_physical_qubits(self) -> set[int]:
        """Physical qubits hosting operands of unresolved front-layer gates (``Pfront``)."""
        if self._front_dirty:
            self._refresh_front()
        return self._front_physical

    def candidate_swaps(self) -> list[tuple[int, int]]:
        """Candidate SWAPs: edges touching at least one front-layer physical qubit."""
        if self._front_dirty:
            self._refresh_front()
        return self._candidates

    def front_pairs(self) -> list[tuple[int, int]]:
        """Logical operand pairs of the unresolved front gates (cached view).

        Order matches :meth:`unresolved_front`.  Logical pairs are layout
        independent, so the list survives committed SWAPs verbatim until a
        gate retires.
        """
        if self._front_dirty:
            self._refresh_front()
        return self._front_pairs

    def front_signature(self) -> tuple[int, ...]:
        """Hashable identity of the current front layer (memoisation key).

        Two states with equal signatures have the same unresolved gates in
        the same order; per-layer tables (heuristic rows, candidate
        expansions) keyed on the signature stay valid across the SWAPs
        committed while the layer is being resolved.
        """
        if self._front_dirty:
            self._refresh_front()
        return tuple(self._unresolved)

    def distance_rows(self):
        """Row-view binding of the *current* distance table.

        Unwraps a :class:`~repro.hardware.distance.FlatDistanceTable` to its
        row lists and passes any other row-indexable matrix (e.g. the
        error-weighted float matrix) through unchanged.  Re-bind after
        replacing ``state.distance``.
        """
        distance = self.distance
        return getattr(distance, "rows", distance)

    def gate_distance(self, index: int, layout: Layout | None = None) -> int:
        """Distance between the physical operands of a two-qubit gate."""
        layout = layout or self.layout
        q1, q2 = self.op_pairs[index]
        return self.distance[layout.phys_of[q1]][layout.phys_of[q2]]


class RoutingEngine:
    """Base class implementing the execute-or-swap routing loop."""

    #: Human-readable router name used in results and benchmark tables.
    name = "base-router"

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        if not coupling.is_connected():
            raise ValueError("routing requires a connected coupling graph")
        self.coupling = coupling
        self.seed = seed
        self._rng = random.Random(seed)

    # -- router-specific policy ------------------------------------------------

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        """Pick the SWAP (physical qubit pair) to apply when no gate is executable."""
        raise NotImplementedError

    def on_circuit_start(self, state: RoutingState) -> None:
        """Hook called once before routing starts (pre-computation)."""

    def on_gate_executed(self, state: RoutingState, index: int) -> None:
        """Hook called after a two-qubit gate has been executed."""

    def on_swap_applied(self, state: RoutingState, swap: tuple[int, int]) -> None:
        """Hook called after a SWAP has been committed."""

    # -- main loop ----------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout | dict[int, int] | Sequence[int] | None = None,
    ) -> RoutingResult:
        """Route ``circuit`` onto the engine's coupling graph.

        Returns a :class:`~repro.routing.result.RoutingResult` whose routed
        circuit uses physical qubit indices and contains the inserted SWAPs.
        """
        start_time = time.perf_counter()
        layout = self._coerce_layout(circuit, initial_layout)
        initial_placement = layout.as_dict()
        dag = CircuitDAG(circuit, include_single_qubit=True)
        pending = {index: len(dag.predecessors(index)) for index in dag.gate_indices}
        state = RoutingState(
            circuit=circuit,
            coupling=self.coupling,
            dag=dag,
            layout=layout,
            distance=self.coupling.distance_table(),
            pending_predecessors=pending,
            front={index for index, count in pending.items() if count == 0},
        )
        self._rng = random.Random(self.seed)
        self.on_circuit_start(state)

        total_gates = len(dag.gate_indices)
        swap_budget = max(10_000, 20 * total_gates + 50 * self.coupling.num_qubits)
        swaps_applied = 0

        while len(state.executed) < total_gates:
            progressed = self._execute_ready_gates(state)
            if len(state.executed) >= total_gates:
                break
            if progressed:
                continue
            swap = self.select_swap(state)
            self._apply_swap(state, swap)
            swaps_applied += 1
            if swaps_applied > swap_budget:
                raise RouterError(
                    f"{self.name} exceeded the SWAP budget ({swap_budget}); "
                    "the heuristic is not making progress"
                )

        routed = QuantumCircuit(
            self.coupling.num_qubits, state.emitted, name=f"{circuit.name}-{self.name}"
        )
        tracer = current_tracer()
        if tracer.enabled:
            span = tracer.current()
            counters = state.kernel_counters()
            counters["swaps_applied"] = swaps_applied
            for key, value in counters.items():
                tracer.count(f"kernel.{key}", value)
                if span is not None:
                    span.set(f"kernel.{key}", value)
        return RoutingResult(
            routed_circuit=routed,
            initial_layout=initial_placement,
            final_layout=state.layout.as_dict(),
            original_depth=circuit.depth(),
            mapper_name=self.name,
            runtime_seconds=time.perf_counter() - start_time,
            cost_evaluations=state.cost_evaluations,
        )

    # -- internals -------------------------------------------------------------------

    def _coerce_layout(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout | dict[int, int] | Sequence[int] | None,
    ) -> Layout:
        if circuit.num_qubits > self.coupling.num_qubits:
            raise ValueError(
                f"circuit uses {circuit.num_qubits} qubits but the device only has "
                f"{self.coupling.num_qubits}"
            )
        if initial_layout is None:
            return Layout.trivial(circuit.num_qubits, self.coupling.num_qubits)
        if isinstance(initial_layout, Layout):
            return initial_layout.copy()
        return Layout(circuit.num_qubits, self.coupling.num_qubits, initial_layout)

    def _execute_ready_gates(self, state: RoutingState) -> bool:
        """Execute every ready gate whose operands are adjacent; return True if any ran."""
        progressed = False
        ready = True
        op_pairs = state.op_pairs
        adjacency = state._adjacency
        n = state._num_physical
        while ready:
            ready = False
            phys_of = state.layout.phys_of
            for index in sorted(state.front):
                pair = op_pairs[index]
                if pair is not None and not adjacency[
                    phys_of[pair[0]] * n + phys_of[pair[1]]
                ]:
                    continue
                self._emit_gate(state, index)
                self._retire(state, index)
                if state.is_2q[index]:
                    self.on_gate_executed(state, index)
                ready = True
                progressed = True
        return progressed

    def _emit_gate(self, state: RoutingState, index: int) -> None:
        gate = state.gate(index)
        phys_of = state.layout.phys_of
        physical = tuple(phys_of[q] for q in gate.qubits)
        state.emitted.append(Gate(gate.name, physical, gate.params, gate.label))

    def _retire(self, state: RoutingState, index: int) -> None:
        state.front.discard(index)
        state.executed.add(index)
        pending = state.pending_predecessors
        front = state.front
        for successor in state.dag.successors(index):
            pending[successor] -= 1
            if pending[successor] == 0:
                front.add(successor)
        state.note_gate_retired(index)

    def _apply_swap(self, state: RoutingState, swap: tuple[int, int]) -> None:
        p1, p2 = swap
        if not state._adjacency[p1 * state._num_physical + p2]:
            raise RouterError(f"{self.name} proposed a SWAP on non-adjacent qubits {swap}")
        state.layout.swap_physical(p1, p2)
        state.emitted.append(Gate("swap", (p1, p2)))
        state.note_swap_applied(p1, p2)
        self.on_swap_applied(state, swap)
