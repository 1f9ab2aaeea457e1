"""Baseline qubit mappers used in the paper's comparison.

The paper evaluates Qlosure against four established mappers (LightSABRE,
MQT QMAP's heuristic, Google Cirq's router and tket's router).  None of those
packages is available in this offline environment, so this subpackage
reimplements each baseline's published SWAP-selection policy on top of the
shared routing engine:

* :class:`~repro.baselines.sabre.SabreRouter` / ``LightSabreRouter`` --
  front + extended layer cost with qubit decay (Li et al., ASPLOS'19; Zou et
  al. 2024),
* :class:`~repro.baselines.qmap_like.QmapLikeRouter` -- layer-local search in
  the spirit of QMAP's A* heuristic (per-layer optimal decisions, no global
  look-ahead),
* :class:`~repro.baselines.cirq_like.CirqLikeRouter` -- time-sliced greedy
  qubit-distance router,
* :class:`~repro.baselines.tket_like.TketLikeRouter` -- time-sliced router
  bounding the longest qubit distance,
* :class:`~repro.baselines.greedy.GreedyDistanceRouter` -- plain
  distance-only router (also the ablation reference point).

The reimplementations preserve each baseline's cost-function *family*, which
is what the paper's comparisons exercise; absolute numbers differ from the
original tools but the relative behaviour (who wins, by what rough factor)
is preserved.
"""

from repro.baselines.sabre import SabreRouter, LightSabreRouter
from repro.baselines.qmap_like import QmapLikeRouter
from repro.baselines.cirq_like import CirqLikeRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.baselines.greedy import GreedyDistanceRouter

__all__ = [
    "GreedyDistanceRouter",
    "SabreRouter",
    "LightSabreRouter",
    "QmapLikeRouter",
    "CirqLikeRouter",
    "TketLikeRouter",
]
