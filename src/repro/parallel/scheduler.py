"""Master-side work scheduling.

The paper stresses that "candidate sequences are issued by the master
process in an on-demand fashion, ensuring a balanced load across all of
the worker processes".  :class:`OnDemandScheduler` implements exactly that
policy and is the dispatch core of
:class:`~repro.parallel.mp_backend.MultiprocessScoreProvider`: the master
keeps a batch's backlog here, hands items out to fill each worker's
in-flight window, records replies and readmits a dead worker's items.
:class:`StaticScheduler` implements the naive alternative (fixed
round-robin pre-assignment) as the ablation baseline — under heterogeneous
per-sequence costs it exhibits the load imbalance on-demand dispatch
avoids, which the scheduling benchmark quantifies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

from repro.parallel.messages import WorkItem, WorkResult

__all__ = [
    "Scheduler",
    "OnDemandScheduler",
    "StaticScheduler",
]


class Scheduler(ABC):
    """Tracks which candidate goes to which worker and what is outstanding.

    Fault tolerance: when the master detects a dead worker it calls
    :meth:`requeue_lost` to move that worker's outstanding items back into
    the pending pool (incrementing their retry counts); a late reply for
    an item that was ever requeued is *dropped* by :meth:`record`
    (returns ``False``) instead of raising, because re-dispatch
    legitimately produces duplicates.
    """

    def __init__(self, items: list[WorkItem]) -> None:
        ids = [it.sequence_id for it in items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sequence ids in work list")
        self._items = {it.sequence_id: it for it in items}
        self._outstanding: dict[int, int] = {}  # sequence_id -> worker_id
        self._in_flight: dict[int, int] = {}  # worker_id -> outstanding count
        self._completed: dict[int, WorkResult] = {}
        self._retries: dict[int, int] = {}

    @abstractmethod
    def next_for(self, worker_id: int) -> WorkItem | None:
        """The next item for ``worker_id``; None when it has nothing left."""

    def _readmit(self, item: WorkItem) -> None:
        """Put a lost item back at the front of the pending pool."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot re-dispatch lost items"
        )

    def requeue_lost(self, worker_id: int) -> list[int]:
        """A worker died: readmit its outstanding items; returns their ids."""
        lost = sorted(
            sid for sid, wid in self._outstanding.items() if wid == worker_id
        )
        for sid in lost:
            del self._outstanding[sid]
            self._retries[sid] = self._retries.get(sid, 0) + 1
            self._readmit(self._items[sid])
        self._in_flight.pop(worker_id, None)
        return lost

    def retries(self, sequence_id: int) -> int:
        """How many times ``sequence_id`` has been requeued after a death."""
        return self._retries.get(sequence_id, 0)

    def record(self, result: WorkResult) -> bool:
        """Register a completed result; validates it was outstanding.

        Returns ``True`` when the result was recorded, ``False`` when it
        was dropped: a late reply for an item that was ever requeued —
        a duplicate of a re-dispatched item, or the answer of the worker
        the item was declared lost with.  The same anomalies on a
        never-requeued item still raise — outside a recovery they
        indicate a protocol bug.
        """
        sid = result.sequence_id
        if sid not in self._items:
            raise KeyError(f"result for unknown sequence {sid}")
        requeued = self._retries.get(sid, 0) > 0
        expected = self._outstanding.get(sid)
        if sid in self._completed or expected != result.worker_id:
            if requeued:
                return False
            if sid in self._completed:
                raise ValueError(f"duplicate result for sequence {sid}")
            if expected is None:
                raise ValueError(
                    f"result for sequence {sid} that was never dispatched"
                )
            raise ValueError(
                f"sequence {sid} dispatched to worker {expected} "
                f"but completed by {result.worker_id}"
            )
        del self._outstanding[sid]
        self._in_flight[expected] -= 1
        self._completed[sid] = result
        return True

    def _mark_dispatched(self, item: WorkItem, worker_id: int) -> WorkItem:
        self._outstanding[item.sequence_id] = worker_id
        self._in_flight[worker_id] = self._in_flight.get(worker_id, 0) + 1
        return item

    @property
    def done(self) -> bool:
        return len(self._completed) == len(self._items)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def in_flight(self, worker_id: int) -> int:
        """Items handed to ``worker_id`` and not yet recorded or requeued."""
        return self._in_flight.get(worker_id, 0)

    @property
    def remaining(self) -> int:
        """Items without a recorded result (handed out or not)."""
        return len(self._items) - len(self._completed)

    def missing(self) -> list[int]:
        """Sequence ids without a recorded result, ascending."""
        return sorted(set(self._items) - set(self._completed))

    def results_in_order(self) -> list[WorkResult]:
        """All results ordered by sequence id; raises when incomplete."""
        if not self.done:
            raise RuntimeError(
                f"incomplete: missing results for {self.missing()[:10]}"
            )
        return [self._completed[sid] for sid in sorted(self._completed)]


class OnDemandScheduler(Scheduler):
    """Hand the next unassigned candidate to whichever worker asks first."""

    def __init__(self, items: list[WorkItem]) -> None:
        super().__init__(items)
        self._pending = deque(items)

    def next_for(self, worker_id: int) -> WorkItem | None:
        if not self._pending:
            return None
        return self._mark_dispatched(self._pending.popleft(), worker_id)

    def _readmit(self, item: WorkItem) -> None:
        # Front of the deque: a recovered item is the batch's critical path.
        self._pending.appendleft(item)


class StaticScheduler(Scheduler):
    """Round-robin pre-assignment (ablation baseline).

    Each worker can only ever receive its pre-assigned slice, so one slow
    sequence delays its owner while other workers idle.  For the same
    reason it cannot recover from a worker death — :meth:`requeue_lost`
    raises ``NotImplementedError``, which is the ablation's point: static
    pre-assignment has no pool to re-balance from.
    """

    def __init__(self, items: list[WorkItem], num_workers: int) -> None:
        super().__init__(items)
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._queues: dict[int, deque[WorkItem]] = {
            w: deque() for w in range(num_workers)
        }
        for i, item in enumerate(items):
            self._queues[i % num_workers].append(item)

    def next_for(self, worker_id: int) -> WorkItem | None:
        if worker_id not in self._queues:
            raise KeyError(f"unknown worker {worker_id}")
        queue = self._queues[worker_id]
        if not queue:
            return None
        return self._mark_dispatched(queue.popleft(), worker_id)
