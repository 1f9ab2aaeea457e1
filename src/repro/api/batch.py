"""Batch driver: one scheduler runs every cache miss, in process or on a pool.

:func:`compile_many` is the harness-facing entry point for routing many
circuits.  Every request carries its own seed and routing has no
cross-request state, so results are bit-for-bit identical to serial
:func:`repro.api.compile` calls, in request order, however they are run.

Requests are first fingerprinted and looked up in the content-addressed
cache (:mod:`repro.api.cache`).  Hits slot back into their positions and
only the misses are scheduled; their results are stored in the parent as
they arrive (children never own a cache).

One scheduler runs every miss.  Retries, the seeded backoff
(:func:`~repro.api.faults.deterministic_backoff`, a pure function of the
fingerprint and attempt, never wall-clock jitter) and the ``on_error``
policy stay in the parent, which hands each attempt to one of two executors:

* **in process**, on the calling thread, when one slot is enough
  (``workers=1`` or a single miss) and no attempt needs isolation.  A
  request's retries then run back to back, sleeping the backoff in between;
* otherwise a **pool** of ``min(workers, misses)`` forked children that live
  for the whole batch.  Only a separate process can enforce a ``timeout`` or
  survive a ``kill`` fault: a child that runs past its deadline or dies is
  reaped, and its slot forks a fresh one for its next attempt.  A batch
  therefore forks its pool size plus one child per respawn.

Children inherit the requests at fork and take ``(index, attempt)`` jobs
over a pipe.  Each replies with the result or a structured
:class:`~repro.api.result.CompileError`, the request's own exception when it
pickles, and its trace fragment, which the parent folds into the batch trace
in batch order.  A :class:`~repro.api.faults.FaultPlan` injects exceptions,
delays and kills at deterministic (request, attempt) points, so every
recovery path is testable and replayable.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import pickle
import time
from collections import deque
from typing import Iterable

from repro.api.faults import apply_execution_faults, deterministic_backoff, resolve_faults
from repro.api.pipeline import compile_uncached as _compile
from repro.api.request import CompileRequest
from repro.api.result import BatchResult, CompileError, CompileResult
from repro.obs.trace import NULL_TRACER, Tracer, current_tracer, use_tracer

#: Recognised per-request failure policies.
ON_ERROR_POLICIES = ("raise", "collect")


def check_batch_options(workers, timeout, retries, backoff, on_error) -> tuple:
    """Validate the fault-tolerance arguments; raise ``ValueError`` early.

    Returns the normalized ``(workers, timeout, retries, backoff)`` tuple.
    Bad values fail loudly *before* any work is scheduled -- a batch must
    never be half-run on arguments that were silently coerced.
    """

    def check(value, kind, rule, valid):
        # A bool is an int, but True is neither a count nor a duration.
        if isinstance(value, bool) or not isinstance(value, kind) or not valid(value):
            raise ValueError(f"{rule}, got {value!r}")
        return value

    rule = "workers must be at least 1 (an int)"
    workers = check(workers, int, rule, lambda count: count >= 1)
    if timeout is not None:
        rule = "timeout must be a positive number of seconds or None"
        timeout = float(check(timeout, (int, float), rule, lambda seconds: seconds > 0))
    rule = "retries must be a non-negative integer"
    retries = check(retries, int, rule, lambda count: count >= 0)
    rule = "backoff must be a finite non-negative number of seconds"
    backoff = float(
        check(backoff, (int, float), rule, lambda seconds: 0 <= seconds < math.inf)
    )
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}")
    return workers, timeout, retries, backoff


def _attempt(work, index: int, attempt: int, in_worker: bool):
    """Run one attempt: ``(result, None)`` or ``(CompileError, exception)``.

    ``work`` is the batch's ``(requests, fingerprints, plan)``.  This is the
    one place a batch fires execution faults; a ``kill`` fault hard-exits a
    pool child and degrades to an exception in process.
    """
    requests, fingerprints, plan = work
    try:
        if plan is not None:
            apply_execution_faults(plan, fingerprints[index], index, attempt, in_worker=in_worker)
        with current_tracer().span("request", index=index, attempt=attempt):
            return _compile(requests[index]), None
    except Exception as exc:
        return CompileError.from_exception(exc, attempts=attempt + 1), exc


class _InProcess:
    """The executor with one slot: each attempt runs on the calling thread."""

    size = 1

    def __init__(self, work):
        self.work = work
        self.finished: list[tuple] = []

    @property
    def running(self) -> int:
        return len(self.finished)

    def start(self, index: int, attempt: int) -> None:
        outcome = _attempt(self.work, index, attempt, False)
        self.finished.append((index, attempt) + outcome)

    def wait(self, until: float) -> list[tuple]:
        finished, self.finished = self.finished, []
        return finished

    def close(self) -> None:
        pass


def _child(conn, inherited, work, trace_ctx) -> None:
    """A pool child: run ``(index, attempt)`` jobs until ``None`` or EOF.

    Replies ``(result or CompileError, exception, spans, counters)``.  The
    request's own exception travels only when it survives pickling.
    """
    for end in inherited:
        end.close()  # the parent's pipe ends, so a dead parent reads as EOF
    with contextlib.suppress(EOFError):
        for index, attempt in iter(conn.recv, None):
            tracer = NULL_TRACER if trace_ctx is None else Tracer(context=trace_ctx)
            with use_tracer(tracer):
                value, exc = _attempt(work, index, attempt, True)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = None
            conn.send((value, exc, tracer.spans, tracer.counters))


def _worker_error(message: str, exc_type: str, attempt: int) -> CompileError:
    return CompileError(
        f"{message} (attempt {attempt})",
        phase="worker",
        exc_type=exc_type,
        attempts=attempt + 1,
    )


class _Slot:
    """One place in the pool: its child (forked on demand) and its attempt."""

    __slots__ = ("process", "conn", "job", "deadline")

    def __init__(self):
        self.process = self.conn = self.job = None
        self.deadline = math.inf


class _Pool:
    """``size`` forked children that live for the whole batch.

    A child that times out or dies is reaped and its slot forks a fresh one
    for its next attempt.  Idle children are stopped by an explicit ``None``:
    any process forked later (a sibling, or another batch's child) may hold
    a copy of the parent's pipe end, so closing it is no signal.
    """

    def __init__(self, size, timeout, work, trace_ctx):
        methods = multiprocessing.get_all_start_methods()
        self.context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self.size = size
        self.slots = [_Slot() for _ in range(size)]
        self.timeout = timeout
        self.child_args = (work, trace_ctx)
        self.fragments: list[tuple] = []  # (index, attempt, spans, counters)

    @property
    def running(self) -> int:
        return sum(slot.job is not None for slot in self.slots)

    def start(self, index: int, attempt: int) -> None:
        slot = next(slot for slot in self.slots if slot.job is None)
        if slot.process is None:
            parent_end, child_end = self.context.Pipe()
            inherited = [s.conn for s in self.slots if s.conn is not None] + [parent_end]
            process = self.context.Process(
                target=_child, args=(child_end, inherited) + self.child_args, daemon=True
            )
            process.start()
            child_end.close()
            slot.process, slot.conn = process, parent_end
        try:
            slot.conn.send((index, attempt))
        except OSError:
            pass  # the idle child died: ``wait`` reads its EOF as a crash
        slot.job = (index, attempt)
        slot.deadline = time.monotonic() + (self.timeout or math.inf)

    def wait(self, until: float) -> list[tuple]:
        """The attempts that finished by ``until``, a deadline or a reply."""
        from multiprocessing.connection import wait as wait_for_any

        running = [slot for slot in self.slots if slot.job is not None]
        wake = min([until] + [slot.deadline for slot in running])
        ready = wait_for_any(
            [slot.conn for slot in running],
            None if wake == math.inf else max(0.0, wake - time.monotonic()),
        )
        finished = []
        for slot in running:
            index, attempt = slot.job
            if slot.conn in ready:
                try:
                    value, exc, spans, counters = slot.conn.recv()
                except (EOFError, OSError):  # the child died mid-attempt
                    message = f"worker process died with exit code {self._reap(slot)}"
                    value, exc = _worker_error(message, "WorkerCrash", attempt), None
                else:
                    self.fragments.append((index, attempt, spans, counters))
            elif time.monotonic() >= slot.deadline:
                self._reap(slot)
                message = f"request timed out after {self.timeout:g}s"
                value, exc = _worker_error(message, "Timeout", attempt), None
            else:
                continue
            slot.job = None
            finished.append((index, attempt, value, exc))
        return finished

    def _reap(self, slot: _Slot):
        """Kill and join the slot's child; the next attempt forks a fresh one."""
        slot.process.kill()
        slot.process.join()
        slot.conn.close()
        exitcode = slot.process.exitcode
        slot.process = slot.conn = None
        return exitcode

    def close(self) -> None:
        """Stop idle children, kill busy ones, fold the trace in batch order."""
        live = [slot for slot in self.slots if slot.process is not None]
        for slot in live:
            if slot.job is not None:
                slot.process.kill()
                continue
            try:
                slot.conn.send(None)
            except OSError:
                pass
        for slot in live:
            slot.process.join()
            slot.conn.close()
        tracer = current_tracer()
        for *_, spans, counters in sorted(self.fragments, key=lambda f: f[:2]):
            tracer.extend(spans, counters)


def _schedule(executor, misses: list[int], settle) -> None:
    """Feed every miss's attempts to ``executor`` until each is settled.

    ``settle(index, attempt, value, exc)`` returns when the request's retry
    may start, or ``None`` once the request is done.  A retry goes to the
    front of the queue, and the head waits out its backoff before anything
    behind it starts.
    """
    queue = deque((index, 0, 0.0) for index in misses)
    try:
        while queue or executor.running:
            free = executor.running < executor.size
            if queue and free and queue[0][2] <= time.monotonic():
                executor.start(*queue.popleft()[:2])
                continue
            if not executor.running:
                time.sleep(max(0.0, queue[0][2] - time.monotonic()))  # a retry's backoff
                continue
            until = queue[0][2] if queue and free else math.inf
            for index, attempt, value, exc in executor.wait(until):
                ready_at = settle(index, attempt, value, exc)
                if ready_at is not None:
                    queue.appendleft((index, attempt + 1, ready_at))
    finally:
        executor.close()


def compile_many(
    requests: Iterable[CompileRequest],
    workers: int = 1,
    cache=True,
    on_error: str = "raise",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    faults=None,
) -> BatchResult:
    """Compile every request, in process or across ``workers`` forked children.

    ``workers`` must be at least 1 (zero or negative counts raise
    :class:`ValueError`).  Misses run in process when one slot is enough
    (``workers=1`` or a single miss) and no attempt needs isolation,
    otherwise on a pool of ``min(workers, misses)`` children that live for
    the whole batch.  The reported ``workers`` is clamped to the request
    count.  Each request's seed is fixed before scheduling, so the routed
    circuits are identical for every worker count.

    ``cache`` is ``True`` (the process default cache), ``False`` / ``None``
    (compile everything) or an explicit :class:`~repro.api.cache.CompileCache`;
    hits are filled in the parent and only the misses are scheduled.

    Fault tolerance (validated up front: bad values raise :class:`ValueError`
    before any work is scheduled):

    * ``on_error`` -- ``"raise"`` (default) aborts on the first failing
      request.  A batch with no ``timeout``, ``retries`` or ``faults``
      re-raises the request's own exception (from a child too, when it
      pickles); any other batch raises its structured
      :class:`~repro.api.result.CompileError`.  ``"collect"`` records each
      failure as a ``CompileError`` in its original batch slot and keeps
      compiling the siblings.
    * ``timeout`` -- per-request wall-clock bound in seconds (per attempt);
      enforcing it requires process isolation, so the batch runs on the
      pool, and a child past its deadline is killed and replaced.
    * ``retries`` -- extra attempts per failed request (``retries=2`` means
      up to 3 attempts), spaced by the deterministic seeded backoff schedule
      ``backoff * 2**(attempt-1) * jitter(fingerprint, attempt)``.
    * ``faults`` -- a :class:`~repro.api.faults.FaultPlan` (or its parse
      syntax) injecting exceptions, delays and worker kills at deterministic
      (request, attempt) points.

    Successful results are bit-for-bit identical to a clean serial run
    regardless of worker count, timeouts, retries or faults injected into
    *other* requests -- each result is a pure function of its request.
    """
    from repro.api.cache import request_fingerprint, resolve_cache

    workers, timeout, retries, backoff = check_batch_options(
        workers, timeout, retries, backoff, on_error
    )
    plan = resolve_faults(faults)
    requests = list(requests)
    cache_store = resolve_cache(cache)
    start = time.perf_counter()
    tracer = current_tracer()

    results: list[CompileResult | CompileError | None] = [None] * len(requests)
    misses: list[int] = []
    fingerprints: list[str | None] = [None] * len(requests)
    with tracer.span("batch", requests=len(requests), workers=workers) as batch_span:
        if cache_store is None:
            misses = list(range(len(requests)))
            if plan is not None:
                # fault targets and backoff seeds key on the content address
                for index, request in enumerate(requests):
                    fingerprints[index] = request_fingerprint(request)
        else:
            for index, request in enumerate(requests):
                fingerprint = request_fingerprint(request)
                fingerprints[index] = fingerprint
                hit = cache_store.lookup(fingerprint, request)
                if hit is None:
                    misses.append(index)
                else:
                    results[index] = hit
        if tracer.enabled:
            hits = len(requests) - len(misses)
            batch_span.update({"cache_hits": hits, "cache_misses": len(misses)})

        plain = timeout is None and retries == 0 and plan is None

        def settle(index, attempt, value, exc):
            # Results are stored as they arrive, so a failing request late in
            # the batch still leaves every completed sibling cached.
            if isinstance(value, CompileResult):
                results[index] = value
                if cache_store is not None:
                    cache_store.store(fingerprints[index], value)
                return None
            if attempt < retries:
                # seeded on the content address where known, else the index
                seed_key = fingerprints[index] or f"request-{index}"
                return time.monotonic() + deterministic_backoff(seed_key, attempt + 1, backoff)
            value.request = requests[index]
            if on_error == "collect":
                results[index] = value
                return None
            raise exc if plain and exc is not None else value

        work = (requests, fingerprints, plan)
        pool_size = min(workers, len(misses))
        if pool_size > 1 or timeout is not None or (plan is not None and plan.has_kills()):
            ctx = tracer.context() if tracer.enabled else None
            executor = _Pool(pool_size, timeout, work, ctx)
        else:
            executor = _InProcess(work)
        _schedule(executor, misses, settle)

    return BatchResult(
        results=results,
        workers=min(workers, len(requests) or 1),
        wall_seconds=time.perf_counter() - start,
        cache_hits=len(requests) - len(misses),
        cache_misses=len(misses),
    )


def compile_sweep(
    base: CompileRequest,
    *,
    routers=None,
    seeds=None,
    circuits=None,
    workers: int = 1,
    cache=True,
    on_error: str = "raise",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    faults=None,
) -> BatchResult:
    """Expand ``base`` with :func:`repro.api.request.sweep_requests` and compile it."""
    from repro.api.request import sweep_requests

    return compile_many(
        sweep_requests(base, routers=routers, seeds=seeds, circuits=circuits),
        workers=workers, cache=cache, on_error=on_error,
        timeout=timeout, retries=retries, backoff=backoff, faults=faults,
    )


__all__ = ["compile_many", "compile_sweep", "CompileResult", "ON_ERROR_POLICIES"]
