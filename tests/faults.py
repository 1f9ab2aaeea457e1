"""Deterministic fault injection for the failure-contract tests.

A :class:`FaultPlan` maps *(request, attempt)* points to faults.  A fault is
keyed by the request's fingerprint, its batch index (an ``int``) or ``"*"``,
and fires on every attempt or on one (0 is the first try).  Plans are pure
data, so a failing batch replays bit-for-bit at any worker count.

While a plan is entered (``with plan:``, or the ``faults`` fixture of
``tests/conftest.py``) it wraps ``repro.api.batch._compile``, the one call
``_attempt`` makes per attempt, and reads the attempt's index and number
from ``_attempt``'s frame.  In-process attempts call the wrapper, and pool
children, a batch's own or the compile service's, inherit it when they are
forked, so add every fault before the first compile forks them.  Faults
fire inside ``_attempt``'s ``try``, so a raised fault becomes a
``CompileError`` with phase ``inject``.  At one point, delays fire first,
then kills, then exceptions:

* ``delay``      sleeps ``delay_seconds`` (drives the timeout paths);
* ``kill``       exits a forked child with status 137, as a crashed worker,
  and raises :class:`InjectedFault` in the process that made the plan;
* ``exception``  raises :class:`InjectedFault`.
"""

from __future__ import annotations

import os
import sys
import time

import repro.api.batch as api_batch
from repro.api.cache import request_fingerprint

#: The status a ``kill`` fault exits a child with (the shell's SIGKILL status).
KILL_EXIT_CODE = 137

FAULT_KINDS = ("exception", "delay", "kill")


class InjectedFault(RuntimeError):
    """The exception an ``exception`` fault raises."""

    _compile_phase = "inject"


class FaultPlan:
    """Faults by target (a fingerprint, a batch index or ``"*"``) and attempt."""

    def __init__(self):
        self.specs: dict[object, list[tuple]] = {}
        self._pid = os.getpid()

    def inject(self, target, kind, *, attempt=None, message="injected fault", delay_seconds=0.05):
        """Add a fault at ``target``; return the plan, so calls chain."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.specs.setdefault(target, []).append((kind, attempt, message, delay_seconds))
        return self

    def fire(self, request, index: int, attempt: int) -> None:
        """Fire every fault at request ``index``'s attempt ``attempt``."""
        keys = [index, "*"]
        if any(isinstance(key, str) and key != "*" for key in self.specs):
            keys.append(request_fingerprint(request))
        specs = [
            spec
            for key in keys
            for spec in self.specs.get(key, ())
            if spec[1] in (None, attempt)
        ]
        where = f"(request #{index}, attempt {attempt})"
        for kind, _, _, seconds in specs:
            if kind == "delay":
                time.sleep(seconds)
        if any(kind == "kill" for kind, *_ in specs):
            if os.getpid() != self._pid:
                os._exit(KILL_EXIT_CODE)
            raise InjectedFault(f"injected worker kill {where} outside a worker process")
        for kind, _, message, _ in specs:
            if kind == "exception":
                raise InjectedFault(f"{message} {where}")

    def __enter__(self) -> "FaultPlan":
        self._compile = compile_uncached = api_batch._compile

        def compile_with_faults(request):
            caller = sys._getframe(1).f_locals  # _attempt's arguments
            self.fire(request, caller["index"], caller["attempt"])
            return compile_uncached(request)

        api_batch._compile = compile_with_faults
        return self

    def __exit__(self, *exc_info) -> None:
        api_batch._compile = self._compile
