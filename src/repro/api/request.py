"""Typed compile requests: the single input object of the ``repro.api`` pipeline.

A :class:`CompileRequest` fully describes one mapping job -- where the
circuit comes from, which device it targets, which router (by registry name)
maps it, the RNG seed, the initial-placement strategy and how strictly the
routed output is validated.  Requests are plain picklable dataclasses so the
batch driver can ship them to worker processes unchanged; routing is
bit-for-bit deterministic per request because the seed travels with the
request instead of living in ambient router state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.hardware.coupling import CouplingGraph

#: Recognised validation levels, weakest to strongest.
VALIDATION_LEVELS = ("none", "connectivity", "full")
#: Recognised placement strategies (see :mod:`repro.core.placement`).
PLACEMENT_STRATEGIES = ("identity", "greedy", "bidirectional")


def check_one_source(circuit, qasm, generate) -> None:
    """Raise ``ValueError`` unless exactly one circuit source is provided."""
    if sum(source is not None for source in (circuit, qasm, generate)) != 1:
        raise ValueError("exactly one of circuit=, qasm= or generate= must be provided")


def parse_generate_spec(spec) -> tuple[str, int]:
    """The ``(family, qubits)`` of a ``generate=`` spec such as ``"qft:24"``.

    The family is stripped and lower-cased, and the qubit count defaults to
    20.  Raises ``ValueError`` when the count is not an integer.
    """
    family, _, qubits = str(spec).partition(":")
    return family.strip().lower(), int(qubits or "20")


@dataclass
class CompileRequest:
    """One mapping job for :func:`repro.api.compile`.

    Exactly one circuit source must be set: ``circuit`` (an in-memory
    :class:`~repro.circuit.circuit.QuantumCircuit`), ``qasm`` (path to an
    OpenQASM 2.0 file) or ``generate`` (a benchmark spec like ``"qft:24"``).

    Attributes:
        backend: device name (resolved via
            :func:`repro.hardware.backends.backend_by_name`) or an explicit
            :class:`~repro.hardware.coupling.CouplingGraph`.
        router: registry name or alias of the routing algorithm.
        seed: RNG seed for tie-breaking; the same request always produces the
            same routed circuit.
        placement: initial-layout strategy (``identity``, ``greedy`` or
            ``bidirectional``: forward/backward passes of the request's own
            router, built from ``router_config`` and ``seed``).
        placement_options: ``{}`` or, for ``bidirectional`` only,
            ``{"passes": n}`` with ``n >= 0`` round trips (default 1).
        router_config: optional config object for config-carrying routers
            (e.g. :class:`~repro.core.config.QlosureConfig` for ``qlosure``);
            overrides ``seed`` when it carries its own.
        validation: ``none`` (default), ``connectivity`` (adjacency of every
            two-qubit gate) or ``full`` (adjacency + dependence preservation).
        label: optional display name attached to the result.
    """

    circuit: QuantumCircuit | None = None
    qasm: str | Path | None = None
    generate: str | None = None
    backend: str | CouplingGraph = "sherbrooke"
    router: str = "qlosure"
    seed: int = 0
    placement: str = "identity"
    placement_options: dict = field(default_factory=dict)
    router_config: Any = None
    validation: str = "none"
    label: str | None = None

    def check(self) -> None:
        """Raise ``ValueError`` on a structurally invalid request."""
        check_one_source(self.circuit, self.qasm, self.generate)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.validation not in VALIDATION_LEVELS:
            raise ValueError(
                f"unknown validation level {self.validation!r}; "
                f"choose from {VALIDATION_LEVELS}"
            )
        if self.placement not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {self.placement!r}; "
                f"choose from {PLACEMENT_STRATEGIES}"
            )
        options = self.placement_options
        if options != {} and (
            self.placement != "bidirectional"
            or not isinstance(options, dict)
            or options.keys() != {"passes"}
        ):
            raise ValueError(
                f"placement_options must be {{}} or, for placement='bidirectional', "
                f"{{'passes': n}}; got {options!r} for placement={self.placement!r}"
            )
        passes = options.get("passes", 0)
        if isinstance(passes, bool) or not isinstance(passes, int) or passes < 0:
            raise ValueError(f"placement_options['passes'] must be an int >= 0, got {passes!r}")

    def with_seed(self, seed: int) -> "CompileRequest":
        """A copy of this request with a different seed."""
        return replace(self, seed=seed)

    def with_router(self, router: str) -> "CompileRequest":
        """A copy of this request targeting a different router."""
        return replace(self, router=router)


def sweep_requests(
    base: CompileRequest,
    *,
    routers: Sequence[str] | None = None,
    seeds: Iterable[int] | None = None,
    circuits: Sequence[QuantumCircuit] | None = None,
) -> list[CompileRequest]:
    """Expand a base request into a deterministic batch.

    The cross product of ``routers`` x ``seeds`` x ``circuits`` (each
    defaulting to the base request's single value) is emitted in a fixed
    order, so :func:`repro.api.compile_many` schedules an identical workload
    regardless of worker count.
    """
    routers = tuple(routers) if routers is not None else (base.router,)
    seeds = tuple(seeds) if seeds is not None else (base.seed,)
    circuits = tuple(circuits) if circuits is not None else None
    requests: list[CompileRequest] = []
    for router in routers:
        for seed in seeds:
            if circuits is None:
                requests.append(replace(base, router=router, seed=seed))
            else:
                for circuit in circuits:
                    requests.append(
                        replace(
                            base,
                            router=router,
                            seed=seed,
                            circuit=circuit,
                            qasm=None,
                            generate=None,
                        )
                    )
    return requests
