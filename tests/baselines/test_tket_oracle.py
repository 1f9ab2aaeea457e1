"""tket's cost function against its lexicographic rule, at every stall.

:class:`~repro.baselines.tket_like.TketLikeRouter` scores each candidate as
``longest * 2**32 + total`` and lets the routing engine take the argmin.  At
every stall of tket routes over the golden circuits and the stress corpus,
the engine's tie list (the one candidate it commits, or the candidates it
hands to the RNG) must equal the tie list of the re-summed ``(longest,
total)`` rule in :mod:`tests.baselines.tket_oracle`, in candidate order.
"""

from __future__ import annotations

import random

from repro.baselines.tket_like import TketLikeRouter
from repro.circuit.circuit import QuantumCircuit
from repro.hardware.topologies import line_topology

from tests.baselines.tket_oracle import tket_ties
from tests.core.test_lookahead import make_state
from tests.routing.test_golden import GOLDEN_SEED, golden_backend, golden_circuits
from tests.routing.test_stress import CORPUS


class TieRecordingRandom(random.Random):
    """The engine RNG, keeping the last list it drew from."""

    drawn = None

    def choice(self, seq):
        self.drawn = list(seq)
        return super().choice(seq)


class Lockstep(TketLikeRouter):
    """tket checking the engine's tie list against the oracle at every stall."""

    stalls = drawn = 0

    def on_circuit_start(self, state):
        super().on_circuit_start(state)
        self._rng = TieRecordingRandom(self.seed)

    def select_swap(self, state):
        expected = tket_ties(state, self._upcoming, self.lookahead_weight)
        self._rng.drawn = None
        swap = super().select_swap(state)
        ties = self._rng.drawn or [swap]
        assert ties == expected
        self.stalls += 1
        self.drawn += len(ties) > 1
        return swap


def test_engine_ties_equal_the_lexicographic_rule():
    workloads = [(golden_backend(), circuit) for circuit in golden_circuits().values()]
    workloads += CORPUS
    stalls = drawn = 0
    for coupling, circuit in workloads:
        router = Lockstep(coupling, seed=GOLDEN_SEED)
        router.run(circuit)
        stalls += router.stalls
        drawn += router.drawn
    # Both branches of the rule are exercised: single winners and RNG draws.
    assert drawn > 0 and stalls > drawn


def test_the_penalty_on_the_last_swap_breaks_a_tie():
    # cx(0, 2) on a line: SWAPs (0, 1) and (1, 2) both bring the pair to
    # distance 1.  Repeating the last SWAP costs 0.5 more, so (1, 2) wins
    # alone and the RNG is not drawn.  None of the routes above reaches this case.
    circuit = QuantumCircuit(5)
    circuit.cx(0, 2)
    state = make_state(circuit, line_topology(5))
    router = TketLikeRouter(state.coupling)
    router.on_front_layer(state)
    weight = router.lookahead_weight
    assert tket_ties(state, router._upcoming, weight) == [(0, 1), (1, 2)]
    state.last_swap = (0, 1)
    assert tket_ties(state, router._upcoming, weight) == [(1, 2)]
    rng_state = router._rng.getstate()
    assert router.select_swap(state) == (1, 2)
    assert router._rng.getstate() == rng_state
