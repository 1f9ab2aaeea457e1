"""Deterministic fault injection for the compile pipeline.

Every recovery path in the fault-tolerant batch driver (:mod:`repro.api.batch`)
is driven by a :class:`FaultPlan`: a declarative map from *(request, attempt)*
to the faults that should fire there.  Plans are pure data -- no wall-clock,
no RNG -- so a failing batch replays bit-for-bit: the same plan against the
same requests injects the same faults at the same points on every run and for
every worker count.

Faults are keyed by request **fingerprint** (the canonical content address
from :func:`repro.api.cache.request_fingerprint`), by batch **index**
(position in the ``compile_many`` request list, written ``#N``) or by the
wildcard ``"*"``, and optionally scoped to a single **attempt** number (0 is
the first try; ``None`` fires on every attempt).

Fault kinds, fired before the pipeline runs (in a worker child or in process):

* ``exception``  raise :class:`InjectedFault`,
* ``delay``      sleep ``delay_seconds`` (drives timeout paths),
* ``kill``       hard-exit the worker process (``os._exit``), simulating a
  crashed worker; outside a worker process it degrades to an
  :class:`InjectedFault` so the parent process is never killed.

The hidden CLI flag ``--inject-faults`` accepts the compact
:meth:`FaultPlan.parse` syntax ``target:kind[:attempt]``, comma-separated::

    repro-map bench --quick --inject-faults '2:exception,5:kill:0'

:func:`deterministic_backoff` is the seeded retry schedule used by the batch
driver: a pure function of *(seed key, attempt, base)*, so retry timing never
depends on wall-clock jitter.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

#: Exit code a ``kill`` fault terminates the worker process with (mirrors the
#: conventional SIGKILL shell status so crash handling matches a real kill).
KILL_EXIT_CODE = 137

#: Every recognised fault kind.
FAULT_KINDS = ("exception", "delay", "kill")


class InjectedFault(RuntimeError):
    """The exception raised by an ``exception`` fault injection point."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what fires, and on which attempt.

    ``attempt`` is ``None`` (fire on every attempt) or a 0-based attempt
    number, so a spec with ``attempt=0`` exercises transparent retry
    recovery: the first try fails, every retry runs clean.
    """

    kind: str
    attempt: int | None = None
    message: str = "injected fault"
    delay_seconds: float = 0.05

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {', '.join(FAULT_KINDS)}"
            )
        if self.attempt is not None and self.attempt < 0:
            raise ValueError(f"fault attempt must be non-negative, got {self.attempt}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")

    def matches(self, attempt: int) -> bool:
        return self.attempt is None or self.attempt == int(attempt)


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, keyed by request and attempt.

    Keys are request fingerprints, ``#N`` batch indices or ``"*"``; values
    are ordered :class:`FaultSpec` tuples.  The plan is plain picklable data
    so it travels to worker processes unchanged.
    """

    specs: dict[str, tuple[FaultSpec, ...]] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @staticmethod
    def _key(target) -> str:
        if target is None:
            raise ValueError("fault target must not be None")
        if isinstance(target, bool):
            raise ValueError("fault target must be an index, fingerprint or request")
        if isinstance(target, int):
            if target < 0:
                raise ValueError(f"fault target index must be non-negative, got {target}")
            return f"#{target}"
        if isinstance(target, str):
            text = target.strip()
            if not text:
                raise ValueError("fault target must not be empty")
            return text
        # Anything request-shaped is reduced to its content address, so a
        # plan built from a request matches the same request at any index.
        from repro.api.cache import request_fingerprint

        return request_fingerprint(target)

    def inject(
        self,
        target,
        kind: str,
        *,
        attempt: int | None = None,
        message: str = "injected fault",
        delay_seconds: float = 0.05,
    ) -> "FaultPlan":
        """Add one fault for ``target`` (index, fingerprint, request or ``"*"``).

        Returns ``self`` so plans build fluently::

            FaultPlan().inject(2, "exception").inject(5, "kill", attempt=0)
        """
        spec = FaultSpec(
            kind=kind, attempt=attempt, message=message, delay_seconds=delay_seconds
        )
        key = self._key(target)
        self.specs[key] = self.specs.get(key, ()) + (spec,)
        return self

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact CLI syntax ``target:kind[:attempt][,...]``.

        ``target`` is a request index or ``*``; raises :class:`ValueError`
        with a one-line message on any malformed entry.
        """
        plan = cls()
        for raw in str(text).split(","):
            entry = raw.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault spec {entry!r}: expected target:kind[:attempt]"
                )
            target_text, kind = parts[0].strip(), parts[1].strip()
            if target_text == "*":
                target: int | str = "*"
            else:
                try:
                    target = int(target_text)
                except ValueError:
                    raise ValueError(
                        f"bad fault target {target_text!r}: expected a request "
                        "index or '*'"
                    ) from None
            attempt = None
            if len(parts) == 3:
                try:
                    attempt = int(parts[2])
                except ValueError:
                    raise ValueError(
                        f"bad fault attempt {parts[2]!r} in {entry!r}: expected an integer"
                    ) from None
            try:
                plan.inject(target, kind, attempt=attempt)
            except ValueError as exc:
                raise ValueError(f"bad fault spec {entry!r}: {exc}") from None
        if not plan:
            raise ValueError("empty fault plan: expected target:kind[:attempt][,...]")
        return plan

    # -- queries -------------------------------------------------------------

    def faults_for(
        self, fingerprint: str | None, index: int | None, attempt: int
    ) -> tuple[FaultSpec, ...]:
        """Every spec firing for this (request, attempt), in plan order."""
        matched: list[FaultSpec] = []
        keys = []
        if fingerprint is not None:
            keys.append(str(fingerprint))
        if index is not None:
            keys.append(f"#{int(index)}")
        keys.append("*")
        for key in keys:
            for spec in self.specs.get(key, ()):
                if spec.matches(attempt):
                    matched.append(spec)
        return tuple(matched)

    def has_kills(self) -> bool:
        return any(
            spec.kind == "kill" for specs in self.specs.values() for spec in specs
        )

    def __len__(self) -> int:
        return sum(len(specs) for specs in self.specs.values())

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{key}:{spec.kind}" + (f":{spec.attempt}" if spec.attempt is not None else "")
            for key, specs in self.specs.items()
            for spec in specs
        )
        return f"FaultPlan({entries})"


def resolve_faults(faults) -> FaultPlan | None:
    """Normalize a ``faults=`` argument: ``None``, a plan, or parse syntax."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return FaultPlan.parse(faults)
    raise TypeError(
        f"faults must be a FaultPlan, a parseable spec string or None, "
        f"got {type(faults).__name__}"
    )


def apply_execution_faults(
    plan: FaultPlan,
    fingerprint: str | None,
    index: int | None,
    attempt: int,
    in_worker: bool = False,
) -> None:
    """Fire every execution fault scheduled at this point.

    Delays fire first (so a ``delay`` + ``kill`` plan hangs, then dies, the
    worst-case worker), then kills, then exceptions.  ``kill`` hard-exits
    only when ``in_worker`` is true; in-process execution degrades it to an
    :class:`InjectedFault` so the caller's interpreter survives.
    """
    specs = plan.faults_for(fingerprint, index, attempt)
    for spec in specs:
        if spec.kind == "delay":
            time.sleep(spec.delay_seconds)
    for spec in specs:
        if spec.kind == "kill":
            if in_worker:
                os._exit(KILL_EXIT_CODE)
            fault = InjectedFault(
                f"injected worker kill (request #{index}, attempt {attempt}) "
                "outside a worker process"
            )
            fault._compile_phase = "inject"
            raise fault
    for spec in specs:
        if spec.kind == "exception":
            fault = InjectedFault(
                f"{spec.message} (request #{index}, attempt {attempt})"
            )
            fault._compile_phase = "inject"
            raise fault


def deterministic_backoff(seed_key: str, attempt: int, base: float = 0.0) -> float:
    """Seeded exponential backoff before retry ``attempt`` (0 = first try).

    A pure function of its arguments: ``base * 2**(attempt-1)`` scaled by a
    jitter factor in ``[0.5, 1.0)`` derived from SHA-256 of
    ``"{seed_key}:{attempt}"`` -- no wall-clock, no RNG state, so a replayed
    batch waits exactly as long as the original run did.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    digest = hashlib.sha256(f"{seed_key}:{attempt}".encode()).digest()
    jitter = 0.5 + digest[0] / 512.0
    return base * (2 ** (attempt - 1)) * jitter
