"""QMAP-style heuristic router: layer-local A* search.

MQT QMAP's heuristic mode partitions the circuit into layers and, for each
layer, performs an A* search over SWAP sequences until the layer's gates are
executable, making locally (per-layer) optimal decisions without global
look-ahead.  This reimplementation keeps that structure: whenever routing
stalls, a bounded A* search over layouts finds the shortest SWAP sequence
that makes at least one unresolved front-layer gate executable, and the first
SWAP of that sequence is committed.  The search heuristic is the summed
remaining distance of the front-layer gates (admissible -- and exact -- for
single-gate fronts, a tie-breaking overestimate for wider fronts), and the
node budget keeps worst-case runtime bounded with a deterministic greedy
fallback.

The search is *incremental* on the shared routing kernel:

* **Deferred materialisation.**  Queue entries carry ``(parent node,
  swap)`` instead of placement copies; a node's flat placement (logical
  index -> physical qubit) is materialised only when the node is popped, as
  one list copy plus an O(1) two-entry update through the parent's inverse
  map.
* **Incremental heuristics.**  Front gates are qubit-disjoint, so every
  front qubit has one partner, and the search reads the engine's cached
  partner table (:meth:`~repro.routing.engine.RoutingState.front_partners`).
  A child's heuristic is the parent's summed distance plus the change of the
  (at most two) pairs with an operand on the swapped qubits, read through
  the node's inverse map, the partner table and its placement: integer
  arithmetic on the flat distance table, so the values are bit-for-bit
  those of a fresh summation, and no node builds an index.  Goal detection
  rides along: an expanded node has every pair at distance >= 2, so a child
  reaches the goal exactly when a touched pair lands at distance 1.
* **Partial expansion** (Yoshizumi, Miura & Ishida, AAAI 2000).  A SWAP
  moves at most two pairs by one each, so a child's integer estimate lies
  within ``[f - 1, f + 3]`` of its parent's, and the open list is one FIFO
  deque per estimate.  Expanding a node queues only its *drop children*:
  the SWAPs on an edge between two front qubits that both step toward their
  partners, at ``f - 1``, below every queued entry.  For the other children
  it appends one *marker* to each of the deques ``f`` to ``f + 3``.  The
  first of a node's markers to pop scores all its candidates; each marker
  then puts its estimate's children, in candidate order, at the front of
  its deque.  A marker sits where an eager expansion would have appended
  those children, and FIFO order is insertion order, so nodes pop in
  exactly the ``(f, insertion counter)`` order of a binary heap over every
  child.  A node keeps its front-front edges, which a SWAP changes only
  when it moves a single front qubit.
  Over the 54-qubit smoke fixture (2,105 searches), 49k of the 74k
  expanded nodes have children and 9.9k of those are scored: 107k children
  are queued and 97k popped, against 752k queued when every expansion
  scored and queued all its children, and the cost evaluations fall from
  1.60M to 0.69M.
* **Candidate lists.**  The root reuses the engine's cached
  :meth:`~repro.routing.engine.RoutingState.candidate_swaps` view; an
  interior node's candidates are the sorted union of the device's
  per-qubit incident edges over its footprint (the placements of the front
  qubits), built in C-level calls.
* **Unreachable goals.**  A SWAP moves any pair's distance by at most one,
  so when even the closest pair needs more than
  :attr:`max_sequence_length` SWAPs (:meth:`_admissible_bound`), no goal is
  ever pushed and the search could only fall back.  The router then goes
  straight to the greedy fallback, which commits the same SWAP.
* **Adaptive node budget.**  When the front layer is nearly routable --
  a single unresolved gate at distance 2 -- the summed-distance heuristic
  is consistent (a SWAP changes a single pair's distance by at most one)
  and a depth-1 goal child exists, so A* provably returns it on the second
  expansion; the budget tightens to :attr:`near_routable_budget` without
  any possibility of changing the committed SWAP.  Exhaustion of the
  budget in deeper searches falls back to the deterministic greedy rule.

The committed SWAP sequence is bit-for-bit identical to the naive
formulation: the pop order ``(f, insertion counter)``, the visited set keyed
on placement signatures, and the expansion order of candidates are all
preserved exactly.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from repro.api.registry import register_router
from repro.routing.engine import PairDeltaScorer, RoutingEngine, RoutingState


@register_router(
    "qmap",
    aliases=("qmap-like",),
    description="QMAP-style per-layer A* search (layer-local optimal decisions)",
)
class QmapLikeRouter(RoutingEngine):
    """Bounded per-layer incremental A* search over SWAP sequences."""

    name = "qmap-like"

    #: Maximum number of layouts expanded per A* invocation.
    node_budget = 80
    #: Maximum SWAP-sequence length explored before falling back to greedy.
    max_sequence_length = 3
    #: Budget when the front is nearly routable (provably >= the 2 expansions
    #: A* needs in that case; see the module docstring).
    near_routable_budget = 4
    #: When True, every search appends its expanded placement signatures to
    #: :attr:`last_expanded_keys` (property-test instrumentation; off on the
    #: hot path).
    record_expansions = False
    #: Placement signatures expanded by the most recent search (a list only
    #: when :attr:`record_expansions` is set).
    last_expanded_keys: list[tuple[int, ...]] | None = None

    # -- A* search ------------------------------------------------------------

    @staticmethod
    def _heuristic(
        distance, placement: list[int], pairs: list[tuple[int, int]]
    ) -> float:
        total = 0
        for q1, q2 in pairs:
            total += distance[placement[q1]][placement[q2]]
        return float(total - len(pairs))  # distance 1 per pair is the goal

    @staticmethod
    def _admissible_bound(
        distance, placement: list[int], pairs: list[tuple[int, int]]
    ) -> int:
        """Lower bound on the SWAPs needed to make *some* pair adjacent.

        ``min_pair d - 1`` never overestimates (each SWAP moves any pair's
        distance by at most one), so it is admissible for fronts of any
        width; for a single pair it coincides with :meth:`_heuristic` and is
        exact.
        """
        return min(distance[placement[q1]][placement[q2]] for q1, q2 in pairs) - 1

    def select_swap(self, state: RoutingState) -> tuple[int, int]:
        pairs = state.front_pairs()
        distance = state.distance_rows()
        layout = state.layout
        start = layout.phys_of  # read-only during the search (state contract)
        trace: list[tuple[int, ...]] | None = (
            [] if self.record_expansions else None
        )
        self.last_expanded_keys = trace
        if self._admissible_bound(distance, start, pairs) > self.max_sequence_length:
            # No goal within max_sequence_length SWAPs: the search could only
            # exhaust and fall back.
            return self._greedy_fallback(state, pairs)
        num_pairs = len(pairs)

        # Every front qubit has exactly one partner; a node reads its pairs
        # through its own placement.
        partner = state.front_partners()
        h_root = sum(distance[start[q1]][start[q2]] for q1, q2 in pairs)
        front_qubits = list(partner)
        partner_get = partner.get

        budget = self.node_budget
        if num_pairs == 1 and h_root == 2:
            # Nearly routable: the search provably ends on expansion 2.
            budget = min(budget, self.near_routable_budget)

        max_length = self.max_sequence_length
        # Open list (see "Partial expansion" in the module docstring):
        # estimate f = cost + h - pairs sits at slot f + offset, and every
        # queued f lies within [f_root - max_length, f_root + 3 *
        # max_length].  A slot's deque holds child entries (cost, summed
        # distance, parent node, swap from parent, first swap of the
        # sequence, goal flag) and the markers of expanded nodes.
        offset = max_length - (h_root - num_pairs)
        buckets = [deque() for _ in range(4 * max_length + 1)]
        buckets[max_length].append((0, h_root, None, None, None, False))
        low = max_length
        queued = 1
        visited: set[tuple[int, ...]] = set()
        expanded = 0
        evaluations = 0
        incident = self.coupling.incident_edges.__getitem__

        while queued and expanded < budget:
            bucket = buckets[low]
            while not bucket:
                low += 1
                bucket = buckets[low]
            entry = bucket.popleft()
            queued -= 1
            if entry.__class__ is list:
                # A marker: its node's children in this slot, in candidate
                # order.  The first of the node's markers to pop scores them
                # all.
                node, cost, h_int, slot, first_swap, runs = entry
                placement, inverse, _ = node
                if runs is None:
                    if placement is start:
                        candidates = state.candidate_swaps()
                    else:
                        footprint = map(placement.__getitem__, front_qubits)
                        candidates = sorted(set(chain.from_iterable(map(incident, footprint))))
                    evaluations += len(candidates)
                    # An expanded node is no goal, so every pair sits at
                    # distance >= 2: none lies on a candidate edge, and a
                    # child is a goal exactly when a touched pair lands at
                    # distance 1.
                    runs = entry[5] = ([], [], [], [])
                    next_cost = cost + 1
                    for candidate in candidates:
                        a2, b2 = candidate
                        h_child = h_int
                        goal = False
                        mate = partner_get(inverse[a2])
                        if mate is not None:
                            other = placement[mate]
                            new = distance[b2][other]
                            h_child += new - distance[a2][other]
                            goal = new == 1
                        mate = partner_get(inverse[b2])
                        if mate is not None:
                            other = placement[mate]
                            new = distance[a2][other]
                            h_child += new - distance[b2][other]
                            if new == 1:
                                goal = True
                        # The child's slot minus the node's; the drop
                        # children (-1) were queued at expansion.
                        rise = h_child - h_int + 1
                        if rise >= 0:
                            runs[rise].append(
                                (
                                    next_cost,
                                    h_child,
                                    node,
                                    candidate,
                                    first_swap if first_swap is not None else candidate,
                                    goal,
                                )
                            )
                run = runs[low - slot]
                bucket.extendleft(reversed(run))
                queued += len(run)
                continue

            cost, h_int, parent, swap, first_swap, is_goal = entry
            if parent is None:
                placement = start
                inverse = layout.logical_at
            else:
                parent_inverse = parent[1]
                a, b = swap
                l1 = parent_inverse[a]
                l2 = parent_inverse[b]
                placement = list(parent[0])
                if l1 is not None:
                    placement[l1] = b
                if l2 is not None:
                    placement[l2] = a
            key = tuple(placement)
            if key in visited:
                continue
            visited.add(key)
            expanded += 1
            if trace is not None:
                trace.append(key)
            if cost and is_goal:
                state.cost_evaluations += evaluations
                return first_swap
            if cost >= max_length:
                continue

            # The front-front edges, the only SWAPs that move two pairs.
            if parent is None:
                edges = [
                    edge
                    for edge in state.candidate_swaps()
                    if inverse[edge[0]] in partner and inverse[edge[1]] in partner
                ]
            else:
                inverse = list(parent_inverse)
                inverse[a] = l2
                inverse[b] = l1
                edges = parent[2]
                if (l1 in partner) != (l2 in partner):
                    # A front qubit moved from `left` to `arrived`, which
                    # held no front qubit.
                    left, arrived = (a, b) if l1 in partner else (b, a)
                    edges = sorted(
                        [edge for edge in edges if left not in edge]
                        + [
                            edge
                            for edge in incident(arrived)
                            if inverse[edge[0]] in partner and inverse[edge[1]] in partner
                        ]
                    )
            # What a child materialises from, and the marker that scores
            # the children: its last field becomes their runs per slot (this
            # node's slot to slot + 3).  Children reference the node, not the
            # marker, so a search frees its nodes without a reference cycle.
            node = (placement, inverse, edges)
            marker = [node, cost, h_int, low, first_swap, None]
            # Queue the drop children (both pairs one step closer, one slot
            # below this node, where every bucket is empty) now, and one
            # marker per slot the other children can land in.
            drop = buckets[low - 1]
            evaluations += len(edges)
            for edge in edges:
                a2, b2 = edge
                other1 = placement[partner[inverse[a2]]]
                other2 = placement[partner[inverse[b2]]]
                new1 = distance[b2][other1]
                new2 = distance[a2][other2]
                if new1 < distance[a2][other1] and new2 < distance[b2][other2]:
                    drop.append(
                        (
                            cost + 1,
                            h_int - 2,
                            node,
                            edge,
                            first_swap if first_swap is not None else edge,
                            new1 == 1 or new2 == 1,
                        )
                    )
            for rise in range(4):
                buckets[low + rise].append(marker)
            queued += 4 + len(drop)
            if drop:
                low -= 1
        state.cost_evaluations += evaluations
        return self._greedy_fallback(state, pairs)

    def _greedy_fallback(
        self, state: RoutingState, pairs: list[tuple[int, int]]
    ) -> tuple[int, int]:
        """Fallback: the SWAP minimising the summed distance of the front pairs.

        Deterministic: candidates are scanned in sorted order and ``min``
        keeps the first of equal costs, so ties resolve to the
        lexicographically first edge on every run.
        """
        candidates = state.candidate_swaps()
        phys_of = state.layout.phys_of
        front_sum = PairDeltaScorer(
            ((phys_of[q1], phys_of[q2]) for q1, q2 in pairs), state.distance_rows()
        ).swapped_sum
        state.cost_evaluations += len(candidates)
        return min(candidates, key=lambda candidate: front_sum(*candidate))
