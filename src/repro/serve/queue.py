"""A bounded priority queue with explicit backpressure.

The service's admission point: :meth:`BoundedPriorityQueue.put_nowait` either
accepts a job or raises :class:`QueueFull` *immediately* -- there is no
blocking producer path, because an HTTP server that silently parks a request
on an unbounded queue has no backpressure at all.  The caller turns
:class:`QueueFull` into ``429 Too Many Requests`` with a ``Retry-After``
hint.

Ordering is ``(priority, arrival)``: lower priority values are served first
and ties are strictly FIFO (a monotonic sequence number breaks them), so two
runs that enqueue the same jobs in the same order dequeue them in the same
order -- scheduling is deterministic even though execution timing is not.

Consumers are asyncio tasks; :meth:`get` parks on a future until an item
arrives and is safe to cancel (a cancelled getter never swallows a wakeup:
the wakeup is re-delivered to the next waiter).
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque


class QueueFull(Exception):
    """Raised by :meth:`BoundedPriorityQueue.put_nowait` on a full queue."""

    def __init__(self, maxsize: int):
        super().__init__(f"queue full ({maxsize} entries)")
        self.maxsize = maxsize


class BoundedPriorityQueue:
    """Bounded, priority-ordered, FIFO-within-priority job queue."""

    def __init__(self, maxsize: int):
        maxsize = int(maxsize)
        if maxsize < 1:
            raise ValueError(f"queue maxsize must be at least 1, got {maxsize}")
        self.maxsize = maxsize
        self._heap: list[tuple[int, int, object]] = []
        self._sequence = 0
        self._getters: deque[asyncio.Future] = deque()

    def __len__(self) -> int:
        return len(self._heap)

    def qsize(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.maxsize

    def put_nowait(self, item, priority: int = 0) -> None:
        """Enqueue ``item`` or raise :class:`QueueFull` -- never blocks."""
        if self.full:
            raise QueueFull(self.maxsize)
        heapq.heappush(self._heap, (int(priority), self._sequence, item))
        self._sequence += 1
        self._wake_one()

    async def get(self):
        """Dequeue the next ``(priority, arrival)``-ordered item, waiting if empty."""
        while not self._heap:
            future = asyncio.get_running_loop().create_future()
            self._getters.append(future)
            try:
                await future
            except asyncio.CancelledError:
                if future.done() and not future.cancelled():
                    # The wakeup raced our cancellation: pass it on so the
                    # item is not stranded with no consumer.
                    self._wake_one()
                else:
                    try:
                        self._getters.remove(future)
                    except ValueError:
                        pass
                raise
        return heapq.heappop(self._heap)[2]

    def _wake_one(self) -> None:
        while self._getters:
            future = self._getters.popleft()
            if not future.done():
                future.set_result(None)
                return
