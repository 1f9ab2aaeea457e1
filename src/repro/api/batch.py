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
* otherwise slots of a **pool** of forked children.  A batch forks
  ``min(workers, misses)`` children that live for the batch.  The compile
  service (:mod:`repro.serve`) runs every served miss on slots of one pool
  that lives as long as the service.  Only a separate process can enforce a
  ``timeout`` or survive a ``kill`` fault: a child that runs past its
  deadline or dies is reaped, and its slot forks a fresh one for its next
  attempt.  A pool therefore forks its size plus one child per respawn.

A child takes jobs over a pipe, each carrying its request, fingerprint,
fault plan and trace context, so one child serves any number of calls.  It
replies with the result's payload (the cache's codec) and the digest of the
QASM bytes it loaded, or with a structured
:class:`~repro.api.result.CompileError` and the request's own exception when
that pickles, plus its trace fragment, which the parent folds into the batch
trace in batch order.  The parent rebuilds the result around the payload
with the gate table undecoded, so storing or sending it copies the table
and the parent encodes nothing.  A child first drops every socket it
inherited but its own pipe end, so a connection its parent closes reaches
EOF at the client.  A :class:`~repro.api.faults.FaultPlan` injects
exceptions, delays and kills at deterministic (request, attempt) points, so
every recovery path is testable and replayable.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import pickle
import stat
import threading
import time
from collections import deque
from typing import Iterable

from repro.api.faults import apply_execution_faults, deterministic_backoff, resolve_faults
from repro.api.pipeline import compile_uncached as _compile
from repro.api.request import CompileRequest
from repro.api.result import BatchResult, CompileError, CompileResult
from repro.api.serialize import result_from_payload, result_to_payload
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


def _job(work, index: int, attempt: int) -> tuple:
    """Attempt ``attempt`` of request ``index`` of ``work``, as :func:`_attempt` takes it."""
    requests, fingerprints, plan = work
    return index, attempt, requests[index], fingerprints[index], plan


def _attempt(index: int, attempt: int, request, fingerprint, plan, in_worker: bool):
    """Run one attempt: ``(result, None)`` or ``(CompileError, exception)``.

    This is the one place a batch fires execution faults; a ``kill`` fault
    hard-exits a pool child and degrades to an exception in process.
    """
    try:
        if plan is not None:
            apply_execution_faults(plan, fingerprint, index, attempt, in_worker=in_worker)
        with current_tracer().span("request", index=index, attempt=attempt):
            return _compile(request), None
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
        outcome = _attempt(*_job(self.work, index, attempt), in_worker=False)
        self.finished.append((index, attempt) + outcome)

    def wait(self, until: float) -> list[tuple]:
        finished, self.finished = self.finished, []
        return finished

    def close(self) -> None:
        pass


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket descriptor but ``keep`` and the standard streams at ``/dev/null``.

    A forked child holds a copy of every socket its parent had open: a
    server's listener and client connections, and the pipe ends of the
    parent and of sibling children.  A connection stays open while any copy
    does, so a client whose connection the parent closed would read no EOF
    until the child exits, and a child lives as long as its pool.  ``dup2``
    drops the copy but keeps the descriptor number taken, so a socket object
    inherited from the parent never closes a file the child opens later.
    """
    listing = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(listing):
            fd = int(name)
            if fd > 2 and fd not in (keep, null):
                with contextlib.suppress(OSError):
                    if stat.S_ISSOCK(os.fstat(fd).st_mode):
                        os.dup2(null, fd)
    finally:
        os.close(null)


def _child(conn) -> None:
    """A pool child: run jobs until ``None`` or EOF.

    A job is :func:`_attempt`'s arguments plus a trace context.  The reply is
    ``(outcome, exception, spans, counters)``: the outcome is the result's
    ``(payload, source_digest)`` or a ``CompileError``, and the request's own
    exception travels only when it survives pickling.
    """
    _drop_inherited_sockets(conn.fileno())
    with contextlib.suppress(EOFError):
        for *job, trace_ctx in iter(conn.recv, None):
            tracer = NULL_TRACER if trace_ctx is None else Tracer(context=trace_ctx)
            with use_tracer(tracer):
                value, exc = _attempt(*job, in_worker=True)
            if isinstance(value, CompileResult):
                value = result_to_payload(value), value.source_digest
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
    """One place in a pool: its child (forked on demand) and its attempt."""

    __slots__ = ("process", "conn", "job", "deadline")

    def __init__(self):
        self.process = self.conn = self.job = None
        self.deadline = math.inf


class _Pool:
    """Forked children that run attempts, one at a time each.

    A pool outlives the calls that use it.  A call leases slots, and a
    leased slot forks its child at its first attempt.  A child that times
    out or dies is reaped, and its slot forks a fresh one for its next
    attempt.  So a pool forks its size plus one child per respawn.
    Released slots queue behind the free ones, so calls one after another
    go round every slot.

    Forks, reaps and stops take one lock, so :meth:`close` may run on
    another thread while slots are leased: it kills busy children, stops
    idle ones and joins them all, and a leased slot's next attempt raises.
    Idle children are stopped by an explicit ``None``: any process forked
    later may hold a copy of the parent's pipe end, so closing it is no
    signal.
    """

    def __init__(self, size: int):
        methods = multiprocessing.get_all_start_methods()
        self.context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self.slots = [_Slot() for _ in range(size)]
        self._free = deque(self.slots)
        self._lock = threading.Condition()
        self._closed = False

    def lease(self, count: int) -> list[_Slot]:
        """``count`` slots, once that many are free."""
        with self._lock:
            self._lock.wait_for(lambda: self._closed or len(self._free) >= count)
            self._check_open()
            return [self._free.popleft() for _ in range(count)]

    def release(self, slots: list[_Slot]) -> None:
        """Return leased slots; a busy slot's child is reaped first."""
        with self._lock:
            for slot in slots:
                if slot.process is not None and (slot.job is not None or self._closed):
                    self.reap(slot)
            self._free.extend(slots)
            self._lock.notify_all()

    def start(self, slot: _Slot, job: tuple, deadline: float) -> None:
        """Send ``job``, :func:`_attempt`'s ``(index, attempt, ...)`` and a trace context."""
        with self._lock:
            self._check_open()
            if slot.process is None:
                parent_end, child_end = self.context.Pipe()
                slot.process = self.context.Process(target=_child, args=(child_end,), daemon=True)
                slot.process.start()
                child_end.close()
                slot.conn = parent_end
            try:
                slot.conn.send(job)
            except OSError:
                pass  # the idle child died: ``wait`` reads its EOF as a crash
            slot.job, slot.deadline = job[:2], deadline

    def reap(self, slot: _Slot):
        """Kill and join the slot's child; return its exit code."""
        with self._lock:
            slot.process.kill()
            slot.process.join()
            slot.conn.close()
            exitcode = slot.process.exitcode
            slot.process = slot.conn = slot.job = None
        return exitcode

    def close(self) -> None:
        """Kill busy children and stop idle ones, then join them all.

        A leased slot keeps its pipe end until its call releases it.
        """
        with self._lock:
            self._closed = True
            self._lock.notify_all()
            live = [slot for slot in self.slots if slot.process is not None]
            for slot in live:
                if slot.job is not None:
                    slot.process.kill()
                    continue
                with contextlib.suppress(OSError):
                    slot.conn.send(None)
            for slot in live:
                slot.process.join()
            for slot in self._free:
                if slot.process is not None:
                    self.reap(slot)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the compile pool is closed")


class _Leased:
    """The executor of one call on slots leased from a pool."""

    def __init__(self, pool: _Pool, size: int, timeout, work, trace_ctx):
        self.pool = pool
        self.slots = pool.lease(size)
        self.size = size
        self.timeout = timeout
        self.work = work
        self.trace_ctx = trace_ctx
        self.fragments: list[tuple] = []  # (index, attempt, spans, counters)

    @property
    def running(self) -> int:
        return sum(slot.job is not None for slot in self.slots)

    def start(self, index: int, attempt: int) -> None:
        slot = next(slot for slot in self.slots if slot.job is None)
        deadline = time.monotonic() + (self.timeout or math.inf)
        self.pool.start(slot, _job(self.work, index, attempt) + (self.trace_ctx,), deadline)

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
                    message = f"worker process died with exit code {self.pool.reap(slot)}"
                    value, exc = _worker_error(message, "WorkerCrash", attempt), None
                else:
                    self.fragments.append((index, attempt, spans, counters))
                    if not isinstance(value, CompileError):
                        value = self._result(index, *value)
            elif time.monotonic() >= slot.deadline:
                self.pool.reap(slot)
                message = f"request timed out after {self.timeout:g}s"
                value, exc = _worker_error(message, "Timeout", attempt), None
            else:
                continue
            slot.job = None
            finished.append((index, attempt, value, exc))
        return finished

    def _result(self, index: int, payload: dict, source_digest) -> CompileResult:
        """A child's reply as a result whose gate table decodes on first read."""
        result = result_from_payload(payload, self.work[0][index], lazy=True)
        result.source_digest = source_digest
        return result

    def close(self) -> None:
        """Release the slots and fold the trace in batch order."""
        self.pool.release(self.slots)
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
    return _compile_many(requests, workers, cache, on_error, timeout, retries, backoff, faults)[0]


def _compile_many(
    requests, workers, cache, on_error, timeout, retries, backoff, faults, pool=None
) -> tuple[BatchResult, list]:
    """:func:`compile_many`, plus the payload the cache stored for each request.

    With a ``pool`` (the compile service's), every miss runs on
    ``min(workers, misses)`` of its slots, leased for this call.  Without
    one, a batch runs in process or forks a pool of its own.  The payloads
    are those ``store`` returned, ``None`` for a request it stored nothing
    for.
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
    payloads: list[dict | None] = [None] * len(requests)
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
                    payloads[index] = cache_store.store(fingerprints[index], value)
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
        size = min(workers, len(misses))
        own_pool = None
        if pool is None and (
            size > 1 or timeout is not None or (plan is not None and plan.has_kills())
        ):
            pool = own_pool = _Pool(size)
        try:
            if pool is None:
                _schedule(_InProcess(work), misses, settle)
            elif misses:
                ctx = tracer.context() if tracer.enabled else None
                _schedule(_Leased(pool, size, timeout, work, ctx), misses, settle)
        finally:
            if own_pool is not None:
                own_pool.close()

    batch = BatchResult(
        results=results,
        workers=min(workers, len(requests) or 1),
        wall_seconds=time.perf_counter() - start,
        cache_hits=len(requests) - len(misses),
        cache_misses=len(misses),
    )
    return batch, payloads


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
