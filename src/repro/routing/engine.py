"""The shared routing loop: execute ready gates, insert SWAPs when stuck.

Every router in this repository (Qlosure and the baselines) follows the same
outer loop, which matches Algorithm 1 of the paper:

1. gates whose dependences are satisfied and whose operands are adjacent
   under the current layout are executed immediately;
2. when no gate can be executed, the router-specific heuristic picks one
   SWAP, which is applied to the layout and appended to the output circuit;
3. repeat until every gate has been executed.

Concrete routers define :meth:`RoutingEngine.swap_costs` (their cost
function, one cost per candidate SWAP) and optionally
:meth:`RoutingEngine.on_circuit_start` and
:meth:`RoutingEngine.on_front_layer`, where a router builds its look-ahead
once per front layer.  Everything else about a stall
belongs to the engine: the SWAP choice of :meth:`RoutingEngine.select_swap`,
the stall record on :class:`RoutingState` (``swaps_since_progress``,
``last_swap`` and the per-qubit ``decay`` table, all reset when a two-qubit
gate executes), the release valve that routes the closest blocked front gate
along a shortest path once ``release_valve_threshold`` SWAPs pass without
progress (LightSABRE, Zou et al. 2024) and the forward/backward layout search
of :meth:`RoutingEngine.bidirectional_layout` (SABRE's reverse traversal, Li
et al. 2019).  qmap's A* search is another choice rule, so qmap alone
overrides ``select_swap``.

Incremental-state contract
--------------------------

:class:`RoutingState` is an *incremental* kernel: the unresolved front layer,
its physical-qubit footprint and the candidate-SWAP set are cached and kept
in sync with gate retirement and SWAP application instead of being recomputed
on every query.  Heuristics plugged into the engine must respect these rules:

* **Read-only views.**  :meth:`RoutingState.unresolved_front`,
  :meth:`RoutingState.front_physical_qubits` and
  :meth:`RoutingState.candidate_swaps` return internal caches; treat them as
  read-only and never modify them in place.  A committed SWAP updates the
  footprint set in place (only the front qubit that moved changes), so a
  copy is needed to keep an earlier footprint.  The candidate-list object
  outlives every SWAP that keeps the footprint (two front qubits trading
  places): the same list serves the next stall, and a router that mutated
  it would corrupt every later stall of the layer.
* **Mutate through the engine.**  The layout and the front set must only be
  changed through the engine loop, which calls
  :meth:`RoutingState.mark_front_dirty` when a gate retires and
  :meth:`RoutingState.note_swap_applied` when a SWAP is committed.  A
  heuristic that speculatively mutates ``state.layout`` must call
  :meth:`RoutingState.mark_front_dirty` afterwards -- better, it should score
  candidates arithmetically and never touch the shared layout at all.
  After a SWAP the loop rescans the front for executable gates only when
  :meth:`RoutingState.front_may_execute` says one may be.
* **Precomputed operand arrays.**  ``state.op_pairs[i]`` holds the two
  qubit operands of gate ``i`` (``None`` for single-qubit gates and
  barriers) and ``state.is_2q[i]`` flags exactly-two-qubit gates; cost loops
  should consume these instead of re-reading ``Gate`` objects.
* **Per-layer memoisation.**  A *front layer* lasts from the first stall
  after a gate executes to the next executed gate.  SWAPs change neither the
  front nor the executed set, so routers build a look-ahead from them
  (Qlosure's window, SABRE's extended set, cirq's and tket's next slice) in
  :meth:`RoutingEngine.on_front_layer`, called before the layer's first SWAP
  choice.  For a router that overrides it, each later stall that reaches
  ``select_swap`` counts as a ``heuristic_cache_hits``.
  :meth:`RoutingState.front_pairs` caches the *logical* operand pairs of the
  unresolved front gates, and :meth:`RoutingState.front_partners` maps each
  of their qubits to its partner; both are read-only views too.
* **Delta scoring.**  Distance-sum costs score candidates with a
  :class:`PairDeltaScorer` built once per stall from the current physical
  operand pairs: a SWAP ``(a, b)`` only moves the pairs with an endpoint on
  ``a`` or ``b``, so each candidate costs O(pairs on two qubits) instead of
  a re-summation of the whole front and look-ahead.  Integer distances make
  the delta sum equal to a fresh summation, so the committed SWAP is the
  same.  Qlosure's :class:`~repro.core.cost.WindowScorer` indexes its
  window by logical qubit once per layer, re-reads the distances once per
  stall and keeps each candidate's delta from the layer's previous stall
  unless the SWAP committed since then dirtied it.
* **Every committed SWAP is in the stall record.**
  ``state.swaps_since_progress`` and ``state.last_swap`` count every
  committed SWAP, release-valve ones included.  In :meth:`RoutingEngine.run`
  two scored stalls of one layer are always exactly one SWAP apart: once
  the valve opens it commits every SWAP until a two-qubit gate executes,
  which starts a new layer.  A scorer that keeps values between its stalls
  still reads the count and recomputes everything when it moved by more
  than one, so a router that commits SWAPs outside ``select_swap`` cannot
  make it reuse a stale value.

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
from repro.obs.trace import NULL_TRACER, current_tracer, use_tracer
from repro.routing.decay import DecayTable
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
    #: The stall record: SWAPs since the last executed two-qubit gate, the
    #: most recent of them and the decay of the logical qubits they moved.
    swaps_since_progress: int = 0
    last_swap: tuple[int, int] | None = None
    decay: DecayTable = field(default_factory=lambda: DecayTable(0))
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
        self._front_partner: dict[int, int] = {}
        self._candidates: list[tuple[int, int]] = []
        # Kernel telemetry (reported via the tracer only -- never serialized
        # into results, so traced and untraced payloads stay bit-identical).
        self.front_rebuilds = 0
        self.candidate_builds = 0
        self.candidate_total = 0
        self.heuristic_cache_hits = 0
        self.deltas_reused = 0

    def gate(self, index: int) -> Gate:
        """The gate at circuit index ``index``."""
        return self.circuit[index]

    # -- cached front-layer views -------------------------------------------

    def mark_front_dirty(self) -> None:
        """Invalidate the cached front-layer views (rebuilt lazily on next read)."""
        self._front_dirty = True

    def note_swap_applied(self, p1: int, p2: int) -> None:
        """Fold a committed SWAP on ``(p1, p2)`` into the cached views.

        Front membership is untouched by a SWAP, and only the unresolved
        gates on the two moved logical qubits can turn executable.  While
        none does, the unresolved list stays valid verbatim and the footprint
        changes in place: a front qubit that moved onto a non-front qubit
        takes its new position, and the candidate list is rebuilt.  Two front
        qubits that trade places (or two non-front ones) leave the footprint
        and the candidate-list object as they are.  As soon as a gate turns
        executable the engine is about to retire it, so the caches are simply
        invalidated.
        """
        if self._front_dirty:
            return
        phys_of = self.layout.phys_of
        logical_at = self.layout.logical_at
        partner = self._front_partner
        adjacency = self._adjacency
        n = self._num_physical
        moved = []
        for here, there in ((p1, p2), (p2, p1)):
            mate = partner.get(logical_at[here])
            if mate is not None:
                if adjacency[here * n + phys_of[mate]]:
                    self._front_dirty = True
                    return
                moved.append((there, here))
        if len(moved) == 1:
            (left, arrived), = moved
            footprint = self._front_physical
            footprint.discard(left)
            footprint.add(arrived)
            self._candidates = self._build_candidates(footprint)

    def front_may_execute(self) -> bool:
        """Whether a front gate may be executable under the current layout.

        False only when the cached views are valid and every front gate is an
        unresolved two-qubit gate; a gate on three or more qubits never joins
        the unresolved front, so a SWAP may still make it executable.
        """
        return self._front_dirty or len(self._unresolved) != len(self.front)

    def _refresh_front(self) -> None:
        phys_of = self.layout.phys_of
        adjacency = self._adjacency
        n = self._num_physical
        op_pairs = self.op_pairs
        is_2q = self.is_2q
        unresolved: list[int] = []
        front_pairs: list[tuple[int, int]] = []
        front_physical: set[int] = set()
        partner: dict[int, int] = {}
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
            partner[q1] = q2
            partner[q2] = q1
        self._unresolved = unresolved
        self._front_pairs = front_pairs
        self._front_physical = front_physical
        self._front_partner = partner
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
            "deltas_reused": self.deltas_reused,
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

    def front_partners(self) -> dict[int, int]:
        """Logical qubit -> its partner in an unresolved front gate (cached view).

        Keys follow :meth:`front_pairs`, both operands of each pair in turn.
        Front gates are qubit-disjoint, so each qubit has one partner, and
        the map survives committed SWAPs verbatim until a gate retires.
        """
        if self._front_dirty:
            self._refresh_front()
        return self._front_partner

    def upcoming_two_qubit(self, limit: int) -> list[int]:
        """Up to ``limit`` two-qubit gates that become ready right after the front layer.

        Unexecuted immediate successors of the front gates, scanned in front
        order (the next time slice, without the front itself).
        """
        upcoming: list[int] = []
        is_2q = self.is_2q
        successors_of = self.dag.successors
        executed = self.executed
        for index in sorted(self.front):
            for successor in successors_of(index):
                if successor in executed:
                    continue
                if is_2q[successor] and successor not in upcoming:
                    upcoming.append(successor)
                    if len(upcoming) >= limit:
                        return upcoming
        return upcoming

    def distance_rows(self):
        """Row-view binding of the *current* distance table.

        Unwraps a :class:`~repro.hardware.distance.FlatDistanceTable` to its
        row lists and passes any other row-indexable matrix (e.g. the
        error-weighted float matrix) through unchanged.  Re-bind after
        replacing ``state.distance``.
        """
        distance = self.distance
        return getattr(distance, "rows", distance)

    def gate_distance(self, index: int) -> int:
        """Distance between the physical operands of a two-qubit gate."""
        q1, q2 = self.op_pairs[index]
        phys_of = self.layout.phys_of
        return self.distance[phys_of[q1]][phys_of[q2]]


class RoutingEngine:
    """Base class implementing the execute-or-swap routing loop."""

    #: Human-readable router name used in results and benchmark tables.
    name = "base-router"
    #: Additive decay penalty per SWAP on each logical qubit it moves.
    decay_increment = 0.001
    #: SWAPs without an executed two-qubit gate before the release valve
    #: opens.  Above any router's longest run of SWAPs without an executed gate
    #: on any input that routes without the valve (246, Qlosure on a 256-qubit
    #: QUEKO circuit), so it only breaks the cycles that would otherwise run
    #: into the SWAP budget.
    release_valve_threshold = 300

    def __init__(self, coupling: CouplingGraph, seed: int = 0):
        if not coupling.is_connected():
            raise ValueError("routing requires a connected coupling graph")
        self.coupling = coupling
        self.seed = seed
        self._rng = random.Random(seed)

    # -- router-specific policy ------------------------------------------------

    def swap_costs(
        self, state: RoutingState, candidates: list[tuple[int, int]]
    ) -> list[float]:
        """The cost of every candidate SWAP, in candidate order (lower is better)."""
        raise NotImplementedError

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        """Pick the SWAP (physical qubit pair) to apply when no gate is executable.

        The cheapest of :meth:`swap_costs` under a running best: a cost more
        than 1e-12 below it starts a new tie list, one within 1e-12 joins the
        list, and the engine RNG picks among two or more tied candidates.
        """
        candidates = state.candidate_swaps()
        best_cost = float("inf")
        best: list[tuple[int, int]] = []
        for candidate, cost in zip(candidates, self.swap_costs(state, candidates)):
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = [candidate]
            elif abs(cost - best_cost) <= 1e-12:
                best.append(candidate)
        state.cost_evaluations += len(candidates)
        return best[0] if len(best) == 1 else self._rng.choice(best)

    def on_circuit_start(self, state: RoutingState) -> None:
        """Hook called once before routing starts (pre-computation)."""

    def on_front_layer(self, state: RoutingState) -> None:
        """Hook called before the first SWAP choice of each front layer.

        The front and the executed set stay fixed until the next gate
        executes, so a look-ahead built here serves every stall of the layer.
        """

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
            decay=DecayTable(circuit.num_qubits, self.decay_increment),
        )
        self._rng = random.Random(self.seed)
        self.on_circuit_start(state)

        total_gates = len(dag.gate_indices)
        swap_budget = max(10_000, 20 * total_gates + 50 * self.coupling.num_qubits)
        swaps_applied = 0
        # A router without a per-layer look-ahead reuses nothing at a stall.
        memoises = type(self).on_front_layer is not RoutingEngine.on_front_layer
        layer_started = False
        rescan = True

        while len(state.executed) < total_gates:
            # A rescan runs every ready gate, so the front it leaves is
            # stalled; after a SWAP that made no front gate executable there
            # is nothing to rescan.
            if rescan and self._execute_ready_gates(state):
                if len(state.executed) >= total_gates:
                    break
                layer_started = False
            front = state.unresolved_front()
            if not front:
                raise RouterError(f"{self.name} stalled with no unresolved front gates")
            if state.swaps_since_progress >= self.release_valve_threshold:
                swap = self._release_valve_swap(state, front)
            else:
                if not layer_started:
                    self.on_front_layer(state)
                    layer_started = True
                elif memoises:
                    state.heuristic_cache_hits += 1
                swap = self.select_swap(state)
            self._apply_swap(state, swap)
            rescan = state.front_may_execute()
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

    def bidirectional_layout(self, circuit: QuantumCircuit, passes: int) -> Layout:
        """An initial layout from ``passes`` forward/backward round trips of :meth:`run`.

        Each round trip routes the circuit forward from the current layout
        (the identity layout at first), then routes the reversed circuit from
        the forward run's final layout; the backward run's final layout starts
        the next round trip (SABRE's reverse traversal).  Zero passes give the
        identity layout.  The passes run under the null tracer, so a trace's
        ``kernel.*`` counters count only the run that routes the request.
        """
        backward = QuantumCircuit(
            circuit.num_qubits, reversed(circuit.gates), name=f"{circuit.name}-reversed"
        )
        layout = None
        with use_tracer(NULL_TRACER):
            for _ in range(passes):
                for direction in (circuit, backward):
                    layout = self.run(direction, layout).final_layout
        return self._coerce_layout(circuit, layout)

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
                    state.swaps_since_progress = 0
                    state.last_swap = None
                    state.decay.reset_all()
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
        state.mark_front_dirty()

    def _apply_swap(self, state: RoutingState, swap: tuple[int, int]) -> None:
        p1, p2 = swap
        if not state._adjacency[p1 * state._num_physical + p2]:
            raise RouterError(f"{self.name} proposed a SWAP on non-adjacent qubits {swap}")
        layout = state.layout
        layout.swap_physical(p1, p2)
        state.emitted.append(Gate("swap", (p1, p2)))
        state.note_swap_applied(p1, p2)
        logical_at = layout.logical_at
        for physical in swap:
            logical = logical_at[physical]
            if logical is not None:
                state.decay.bump(logical)
        state.last_swap = swap
        state.swaps_since_progress += 1

    def _release_valve_swap(
        self, state: RoutingState, front: list[int]
    ) -> tuple[int, int]:
        """The first hop on a shortest path of the closest blocked front gate."""
        target = min(front, key=state.gate_distance)
        q1, q2 = state.op_pairs[target]
        phys_of = state.layout.phys_of
        path = self.coupling.shortest_path(phys_of[q1], phys_of[q2])
        return (min(path[0], path[1]), max(path[0], path[1]))
