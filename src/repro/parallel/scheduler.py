"""Master-side work scheduling.

The paper stresses that "candidate sequences are issued by the master
process in an on-demand fashion, ensuring a balanced load across all of
the worker processes".  :class:`OnDemandScheduler` implements exactly that
policy and is the dispatch core of
:class:`~repro.parallel.mp_backend.WorkerPool`: the master keeps a
batch's backlog here, hands items out to fill each worker's in-flight
window, records replies and readmits a dead worker's items.  It holds no
queue or process, so the protocol is testable without either.
"""

from __future__ import annotations

from collections import deque

from repro.parallel.messages import WorkItem, WorkResult

__all__ = ["OnDemandScheduler"]


class OnDemandScheduler:
    """Hand the next unassigned candidate to whichever worker asks first,
    and track which worker holds what.

    Fault tolerance: when the master detects a dead worker it calls
    :meth:`requeue_lost` to move that worker's outstanding items back to
    the front of the backlog (incrementing their retry counts); a late
    reply for an item that was ever requeued is *dropped* by
    :meth:`record` (returns ``False``) instead of raising, because
    re-dispatch legitimately produces duplicates.
    """

    def __init__(self, items: list[WorkItem]) -> None:
        ids = [it.sequence_id for it in items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sequence ids in work list")
        self._items = {it.sequence_id: it for it in items}
        self._pending = deque(items)
        self._outstanding: dict[int, int] = {}  # sequence_id -> worker_id
        self._in_flight: dict[int, int] = {}  # worker_id -> outstanding count
        # Ids only: the results themselves belong to the caller.
        self._completed: set[int] = set()
        self._retries: dict[int, int] = {}

    def next_for(self, worker_id: int) -> WorkItem | None:
        """The next backlog item, now held by ``worker_id``; None when
        the backlog is empty."""
        if not self._pending:
            return None
        item = self._pending.popleft()
        self._outstanding[item.sequence_id] = worker_id
        self._in_flight[worker_id] = self._in_flight.get(worker_id, 0) + 1
        return item

    def requeue_lost(self, worker_id: int) -> list[int]:
        """A worker died: readmit its outstanding items; returns their ids."""
        lost = sorted(
            sid for sid, wid in self._outstanding.items() if wid == worker_id
        )
        for sid in lost:
            del self._outstanding[sid]
            self._retries[sid] = self._retries.get(sid, 0) + 1
            # Front of the deque: a recovered item is the batch's
            # critical path.
            self._pending.appendleft(self._items[sid])
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
        self._completed.add(sid)
        return True

    @property
    def done(self) -> bool:
        return len(self._completed) == len(self._items)

    def in_flight(self, worker_id: int) -> int:
        """Items handed to ``worker_id`` and not yet recorded or requeued."""
        return self._in_flight.get(worker_id, 0)

    @property
    def remaining(self) -> int:
        """Items without a recorded result (handed out or not)."""
        return len(self._items) - len(self._completed)

    def missing(self) -> list[int]:
        """Sequence ids without a recorded result, ascending."""
        return sorted(set(self._items) - self._completed)
