"""Key-ordered run queues with lazy removal.

Default dispatch order is AIX's: numerically lowest priority first, FIFO
among equals.  A :class:`~repro.kernel.policy.SchedPolicy` may instead
supply a *key* callable evaluated at enqueue time (virtual runtime for
``fair``, a constant for the FIFO policies — entries then order purely by
sequence number).  Entries are heap tuples ``(key, seq, thread)``; removal
(thread chosen elsewhere, priority change) marks the entry stale via the
thread's ``rq_entry`` back-pointer and the heap skips stale entries on
pop — the same O(1)-cancel idiom the event queue uses.  When stale
entries outnumber live ones past a floor, :meth:`remove` compacts the
heap in place (mirroring the event queue's dead>live>=64 rule) so
churn-heavy workloads cannot accumulate unbounded dead weight.

``seq`` comes from a class-global counter, so sequence order is total
*across* queues — :meth:`head_rank` exposes the head's ``(key, seq)``
rank for policies that run a cross-queue FIFO.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, Optional

from repro.kernel.thread import Thread

__all__ = ["RunQueue"]

#: Compaction floor: never compact tiny heaps (pruning handles those);
#: beyond it, compact as soon as dead entries outnumber live ones.
_COMPACT_MIN_ENTRIES = 64


class _Entry:
    __slots__ = ("priority", "seq", "thread", "live")

    def __init__(self, priority: float, seq: int, thread: Thread) -> None:
        self.priority = priority
        self.seq = seq
        self.thread = thread
        self.live = True

    def __lt__(self, other: "_Entry") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class RunQueue:
    """One dispatch queue (per-CPU local, or node-global for daemons)."""

    _seq = itertools.count()

    def __init__(
        self, name: str = "", key: Optional[Callable[[Thread], float]] = None
    ) -> None:
        self.name = name
        #: Enqueue-time ordering key; None = thread.priority (AIX order,
        #: and the fast path — no callable indirection in push).
        self._key = key
        self._heap: list[_Entry] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, thread: Thread) -> None:
        """Enqueue *thread* at its current key, behind equals."""
        if thread.rq_entry is not None and thread.rq_entry.live:
            raise RuntimeError(f"{thread!r} is already queued")
        key = thread.priority if self._key is None else self._key(thread)
        entry = _Entry(key, next(self._seq), thread)
        thread.rq_entry = entry
        heapq.heappush(self._heap, entry)
        self._live += 1

    def remove(self, thread: Thread) -> None:
        """Dequeue *thread* (lazy; compacts when dead weight dominates)."""
        entry = thread.rq_entry
        if entry is None or not entry.live:
            raise RuntimeError(f"{thread!r} is not queued")
        entry.live = False
        entry.thread = None
        thread.rq_entry = None
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead >= _COMPACT_MIN_ENTRIES and dead > self._live:
            self._heap = [e for e in self._heap if e.live]
            heapq.heapify(self._heap)

    def _prune(self) -> None:
        heap = self._heap
        while heap and not heap[0].live:
            heapq.heappop(heap)

    def best_priority(self) -> Optional[int]:
        """Key of the head thread (priority under the default order), or None."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head.live:
                return head.priority
            heapq.heappop(heap)
        return None

    def head_rank(self) -> Optional[tuple]:
        """``(key, seq)`` rank of the head thread, or None when empty.

        Sequence numbers are globally monotonic across queues, so ranks
        compare meaningfully *between* queues — the cross-queue FIFO the
        quantum policy runs.
        """
        self._prune()
        if not self._heap:
            return None
        head = self._heap[0]
        return (head.priority, head.seq)

    def peek(self) -> Optional[Thread]:
        """Return (without removing) the head thread, or None."""
        self._prune()
        return self._heap[0].thread if self._heap else None

    def pop(self) -> Optional[Thread]:
        """Dequeue and return the best thread, or None when empty."""
        self._prune()
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        thread = entry.thread
        entry.live = False
        entry.thread = None
        thread.rq_entry = None
        self._live -= 1
        return thread

    def best_stealable_priority(self) -> Optional[int]:
        """Best priority among threads that permit migration, or None."""
        best: Optional[int] = None
        for entry in self._heap:
            if entry.live and entry.thread.allow_steal:
                if best is None or entry.priority < best:
                    best = entry.priority
        return best

    def pop_stealable(self) -> Optional[Thread]:
        """Dequeue the best thread with ``allow_steal`` set, or None.

        Linear scan — stealing is rare (only when a CPU idles with an empty
        local queue), and queues are short.
        """
        best_entry: Optional[_Entry] = None
        for entry in self._heap:
            if entry.live and entry.thread.allow_steal:
                if best_entry is None or entry < best_entry:
                    best_entry = entry
        if best_entry is None:
            return None
        thread = best_entry.thread
        best_entry.live = False
        best_entry.thread = None
        thread.rq_entry = None
        self._live -= 1
        return thread

    def threads(self) -> Iterator[Thread]:
        """Iterate live queued threads (test/introspection helper)."""
        for entry in self._heap:
            if entry.live:
                yield entry.thread

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: queued threads in exact dispatch order.

        Entry sequence numbers come from a class-global counter, so their
        absolute values differ between rebuilds of the same run — only the
        *order* they induce is reproducible, and only the order is
        captured.
        """
        order = sorted(
            (e for e in self._heap if e.live), key=lambda e: (e.priority, e.seq)
        )
        return {
            "name": self.name,
            "order": [[e.priority, desc.thread(e.thread)] for e in order],
        }
