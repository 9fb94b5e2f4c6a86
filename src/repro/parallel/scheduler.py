"""Master-side work scheduling.

The paper stresses that "candidate sequences are issued by the master
process in an on-demand fashion, ensuring a balanced load across all of
the worker processes".  :class:`OnDemandScheduler` implements exactly that
policy and is the dispatch core of
:class:`~repro.parallel.mp_backend.WorkerPool`: the master keeps a
batch's backlog here, hands it out in slices to whichever worker asks,
records replies and readmits a dead worker's slices.  It holds no pipe
or process — a slice's wire frame comes from a function the caller
supplies — so the protocol is testable without either.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from itertools import islice

from repro.parallel.messages import WorkResult

__all__ = ["SLICE_FLOOR", "OnDemandScheduler"]

#: The fewest candidates a slice takes while the backlog can give every
#: live worker that many.  A slice pays a fixed ~140–210 µs per call (one
#: ``score_batch``, a frame each way) on top of ~110 µs per candidate, so
#: small slices cost more per candidate.  The per-call table of a
#: full-sweep ``score_batch`` on the benchmark's ``small`` profile reads,
#: in µs per candidate: 253–323 at k = 1, 186–231 at 2, 151–227 at 4,
#: 126–130 at 8, 113–136 at 16 and 105–113 at k ≥ 32.  The floor is the
#: smallest k within ~10 % of the k ≥ 32 cost: 8.  Below it the tail of
#: a batch is a run of round trips rather than work.
SLICE_FLOOR = 8


class OnDemandScheduler:
    """Hand the next slice of the backlog to whichever worker asks first,
    and track which worker holds what.

    Slices are sized by guided self-scheduling with a floor:
    ``max(SLICE_FLOOR, ceil(backlog / (2 × workers)))`` candidates — large
    while much is left, never smaller than :data:`SLICE_FLOOR` — so the
    tail balances on demand without a run of one-candidate round trips.
    A backlog smaller than ``workers × SLICE_FLOOR`` is instead split
    evenly over the live workers that hold no slice of the batch, so no
    worker idles on a short batch; the last slice takes what is left.
    ``frame(sequence_ids)`` returns a slice's wire
    frame; a slice whose frame exceeds the ``budget`` its worker's pipe
    can hold is trimmed until it fits, and a single candidate that does
    not fit on its own goes only to an ``idle`` worker (one with nothing
    unanswered, so it is reading its pipe and the send completes).

    Fault tolerance: when the master detects a dead worker it calls
    :meth:`requeue_lost` to move every candidate of that worker's
    unacknowledged slices back to the front of the backlog (incrementing
    their retry counts); a late reply for a slice that was ever requeued
    is *dropped* by :meth:`record` (returns ``False``) instead of raising,
    because re-dispatch legitimately produces duplicates.
    """

    def __init__(
        self,
        sequence_ids: Iterable[int],
        frame: Callable[[tuple[int, ...]], bytes],
    ) -> None:
        ids = list(sequence_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sequence ids in work list")
        self._ids = frozenset(ids)
        self._frame = frame
        self._pending = deque(ids)
        # worker_id -> its unacknowledged slices, in hand-out order.
        self._held: dict[int, list[tuple[int, ...]]] = {}
        # Ids only: the results themselves belong to the caller.
        self._completed: set[int] = set()
        self._retries: dict[int, int] = {}

    def slice_size(self, workers: int) -> int:
        """The size of the next slice among ``workers`` live workers:
        ``max(SLICE_FLOOR, ceil(backlog / (2 × workers)))``, or, when the
        backlog is short of ``workers × SLICE_FLOOR``, an even share of
        it among the live workers holding no slice of this batch.  Never
        more than the backlog (nor less than 1)."""
        backlog = len(self._pending)
        if backlog < workers * SLICE_FLOOR:
            free = workers - sum(1 for held in self._held.values() if held)
            if free > 0:
                return max(1, -(-backlog // free))
        guided = -(-backlog // (2 * workers))
        return max(1, min(backlog, max(SLICE_FLOOR, guided)))

    def next_for(
        self, worker_id: int, *, workers: int, budget: int, idle: bool
    ) -> tuple[tuple[int, ...], bytes] | None:
        """The next slice of the backlog and its frame, now held by
        ``worker_id``; None when the backlog is empty, or when its head
        alone exceeds ``budget`` and the worker is not ``idle``."""
        size = self.slice_size(workers)
        while self._pending:
            sids = tuple(islice(self._pending, size))
            frame = self._frame(sids)
            if len(frame) <= budget or (size == 1 and idle):
                for _ in sids:
                    self._pending.popleft()
                self._held.setdefault(worker_id, []).append(sids)
                return sids, frame
            if size == 1:
                break
            # Frames grow about linearly with the candidates in them.
            size = max(1, min(size - 1, size * budget // len(frame)))
        return None

    def requeue_lost(self, worker_id: int) -> list[int]:
        """A worker died: readmit every candidate of its unacknowledged
        slices; returns their ids, ascending."""
        lost = sorted(sid for sids in self._held.pop(worker_id, ()) for sid in sids)
        for sid in lost:
            self._retries[sid] = self._retries.get(sid, 0) + 1
        # Front of the deque: recovered work is the batch's critical path.
        self._pending.extendleft(reversed(lost))
        return lost

    def retries(self, sequence_id: int) -> int:
        """How many times ``sequence_id`` has been requeued after a death."""
        return self._retries.get(sequence_id, 0)

    def record(self, result: WorkResult) -> bool:
        """Register a completed slice; validates its worker held it.

        Returns ``True`` when the slice was recorded, ``False`` when it
        was dropped: a late reply for a slice with a candidate that was
        ever requeued — a duplicate of re-dispatched work, or the answer
        of the worker it was declared lost with.  The same anomalies with
        no requeue behind them still raise — outside a recovery they
        indicate a protocol bug.
        """
        sids = tuple(result.sequence_ids)
        unknown = [sid for sid in sids if sid not in self._ids]
        if unknown:
            raise KeyError(f"result for unknown sequence(s) {unknown}")
        held = self._held.get(result.worker_id, [])
        if sids in held:
            held.remove(sids)
            self._completed.update(sids)
            return True
        if any(self._retries.get(sid, 0) > 0 for sid in sids):
            return False
        if any(sid in self._completed for sid in sids):
            raise ValueError(f"duplicate result for sequence(s) {list(sids)}")
        holders = sorted(
            wid for wid, slices in self._held.items() if sids in slices
        )
        if not holders:
            raise ValueError(
                f"result for sequence(s) {list(sids)} that were never "
                "dispatched as one slice"
            )
        raise ValueError(
            f"sequence(s) {list(sids)} dispatched to worker {holders[0]} "
            f"but completed by {result.worker_id}"
        )

    @property
    def done(self) -> bool:
        return len(self._completed) == len(self._ids)

    @property
    def backlog(self) -> int:
        """Candidates not handed out (never, or again after a death)."""
        return len(self._pending)

    @property
    def remaining(self) -> int:
        """Candidates without a recorded result (handed out or not)."""
        return len(self._ids) - len(self._completed)

    def missing(self) -> list[int]:
        """Sequence ids without a recorded result, ascending."""
        return sorted(self._ids - self._completed)
