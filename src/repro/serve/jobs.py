"""Job bookkeeping: handles for queued work, and the in-flight coalescing table.

Every admitted compile becomes a :class:`Job` with a sequential id
(``job-000001`` -- deterministic, no RNG or wall-clock in the handle) and a
state machine ``queued -> running -> done|failed``.  Synchronous callers
await the job's future; asynchronous callers (``POST /v1/compile?async=1``)
get the id back immediately and poll ``GET /v1/jobs/<id>``.

The :class:`JobTable` also owns request **coalescing**: jobs are indexed by
request fingerprint while queued or running, and an identical request
arriving in that window attaches to the existing job instead of enqueueing a
second computation.  Routing is bit-for-bit deterministic per request, so
every waiter legally receives the same result payload -- one execution, N
responses, zero divergence.

Finished jobs are retained for polling in a bounded FIFO (oldest finished
evicted first), so the table cannot grow without bound under sustained load.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

#: Recognised job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Number of *finished* jobs retained for ``GET /v1/jobs/<id>``.
FINISHED_CAPACITY = 1024


class Job:
    """One admitted unit of work (a single compile or a whole batch)."""

    def __init__(self, job_id: str, fingerprint: str | None, priority: int, kind: str):
        self.id = job_id
        self.fingerprint = fingerprint
        self.priority = int(priority)
        self.kind = kind  # "compile" | "batch"
        self.state = "queued"
        self.coalesced = 0  # waiters attached beyond the originating request
        self.trace_id: str | None = None  # set when the job is queued
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.response: dict | None = None  # the finished body (result or error)
        self.status: int | None = None  # the finished HTTP status

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed")

    def finish(self, status: int, response: dict) -> None:
        """Resolve the job; every awaiting caller sees the same response."""
        self.state = "done" if status < 400 else "failed"
        self.status = status
        self.response = response
        if not self.future.done():
            self.future.set_result((status, response))

    def payload(self) -> dict:
        """The ``GET /v1/jobs/<id>`` body for the job's current state."""
        record: dict = {
            "id": self.id,
            "state": self.state,
            "kind": self.kind,
            "priority": self.priority,
            "coalesced": self.coalesced,
        }
        if self.fingerprint is not None:
            record["fingerprint"] = self.fingerprint
        if self.done and self.response is not None:
            record["response"] = self.response
        return record


class JobTable:
    """Sequential job ids, bounded retention, fingerprint-keyed coalescing."""

    def __init__(self):
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._by_fingerprint: dict[str, Job] = {}
        self._next_id = 0
        self._finished: OrderedDict[str, None] = OrderedDict()

    def create(self, fingerprint: str | None, priority: int, kind: str = "compile") -> Job:
        self._next_id += 1
        job = Job(f"job-{self._next_id:06d}", fingerprint, priority, kind)
        self._jobs[job.id] = job
        if fingerprint is not None:
            self._by_fingerprint[fingerprint] = job
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def in_flight(self, fingerprint: str) -> Job | None:
        """The queued-or-running job for ``fingerprint``, if any."""
        return self._by_fingerprint.get(fingerprint)

    def in_flight_count(self) -> int:
        return sum(1 for job in self._jobs.values() if not job.done)

    def running_count(self) -> int:
        return sum(1 for job in self._jobs.values() if job.state == "running")

    def finish(self, job: Job, status: int, response: dict) -> None:
        """Resolve ``job``, detach its fingerprint, and bound retention."""
        job.finish(status, response)
        if job.fingerprint is not None and self._by_fingerprint.get(job.fingerprint) is job:
            del self._by_fingerprint[job.fingerprint]
        self._finished[job.id] = None
        while len(self._finished) > FINISHED_CAPACITY:
            evicted, _ = self._finished.popitem(last=False)
            self._jobs.pop(evicted, None)

    def counts(self) -> dict:
        """Per-state job counts (the ``/healthz`` jobs section)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts
