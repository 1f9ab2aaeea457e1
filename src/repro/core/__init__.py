"""Qlosure: the dependence-driven qubit mapper (the paper's contribution).

The router follows Algorithm 1 of the paper: every gate carries a weight
``omega``, the number of its transitive dependents (Eq. 1, read from the
routing engine's own dependence DAG with bitsets; the tests check it against
the polyhedral form of Eq. 1 under ``tests/polyhedral/``), and the routing
loop inserts SWAPs chosen by the layered, dependence-weighted cost function
``M(s)`` (Eq. 2).

Circuits are routed with ``router="qlosure"`` through :mod:`repro.api`,
which builds the router from the registry.  This subpackage holds the parts:

* :class:`~repro.core.router.QlosureRouter` -- the routing engine itself,
* :class:`~repro.core.config.QlosureConfig` -- tuning knobs and the ablation
  switches used in the paper's Fig. 8 study (``router_config=``),
* :class:`~repro.core.error_aware.ErrorAwareQlosureRouter` -- the
  error-weighted variant (the paper's future-work direction).
"""

from repro.core.config import QlosureConfig
from repro.core.lookahead import LookaheadWindow, build_lookahead
from repro.core.router import QlosureRouter
from repro.core.placement import greedy_placement, initial_layout
from repro.core.error_aware import ErrorAwareQlosureRouter

__all__ = [
    "QlosureConfig",
    "LookaheadWindow",
    "build_lookahead",
    "QlosureRouter",
    "greedy_placement",
    "initial_layout",
    "ErrorAwareQlosureRouter",
]
