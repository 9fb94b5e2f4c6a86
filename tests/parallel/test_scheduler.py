"""Tests for the on-demand scheduler: slices, frame budgets, requeues."""

import pytest

from repro.ga.fitness import ScoreSet
from repro.parallel.messages import WorkResult
from repro.parallel.scheduler import SLICE_FLOOR, OnDemandScheduler

UNLIMITED = 1 << 30


def _sched(n, sizes=None, frames=None):
    """A scheduler over ids ``0..n-1`` whose frame for a slice is as many
    bytes as its candidates' ``sizes`` add up to (1 each by default);
    every frame built is appended to ``frames``."""
    sizes = sizes or [1] * n

    def frame(sids):
        if frames is not None:
            frames.append(sids)
        return bytes(sum(sizes[sid] for sid in sids))

    return OnDemandScheduler(range(n), frame)


def _hand(sched, worker, workers=1, budget=UNLIMITED, idle=True):
    handed = sched.next_for(worker, workers=workers, budget=budget, idle=idle)
    return None if handed is None else handed[0]


def _result(sids, worker):
    return WorkResult(tuple(sids), worker, tuple(ScoreSet(0.5, ()) for _ in sids))


class TestOnDemand:
    def test_hands_out_in_order_to_whoever_asks(self):
        sched = _sched(3)
        # Three workers, three candidates: one each, in backlog order.
        assert _hand(sched, 5, workers=3) == (0,)
        assert _hand(sched, 2, workers=3) == (1,)

    def test_exhausts(self):
        sched = _sched(2)
        assert _hand(sched, 0, workers=2) == (0,)
        assert _hand(sched, 0, workers=2) == (1,)
        assert _hand(sched, 0, workers=2) is None

    def test_done_after_all_results(self):
        sched = _sched(2)
        s0 = _hand(sched, 0, workers=2)
        s1 = _hand(sched, 1, workers=2)
        assert not sched.done
        sched.record(_result(s0, 0))
        sched.record(_result(s1, 1))
        assert sched.done
        assert sched.backlog == 0 and sched.remaining == 0

    def test_in_flight_remaining_and_missing_track_the_batch(self):
        sched = _sched(4)
        first = _hand(sched, 7, workers=4)
        _hand(sched, 7, workers=4)
        _hand(sched, 3, workers=4)
        # Three handed out (in flight), one still in the backlog.
        assert sched.backlog == 1
        assert sched.remaining == 4 and sched.missing() == [0, 1, 2, 3]
        sched.record(_result(first, 7))
        assert sched.backlog == 1
        assert sched.remaining == 3 and sched.missing() == [1, 2, 3]

    def test_results_in_order(self):
        sched = _sched(3)
        handed = [(_hand(sched, w, workers=3), w) for w in (2, 0, 1)]
        # Replies arrive in any order; what is still owed stays sorted.
        for (sids, w), owed in zip(reversed(handed), ([0, 1], [0], [])):
            sched.record(_result(sids, w))
            assert sched.missing() == owed
        assert sched.done

    def test_results_in_order_incomplete_raises(self):
        # An incomplete batch is never "done", and says what it is owed.
        sched = _sched(2)
        sched.record(_result(_hand(sched, 0, workers=2), 0))
        assert not sched.done
        assert sched.missing() == [1] and sched.remaining == 1

    def test_duplicate_result_rejected(self):
        sched = _sched(1)
        sids = _hand(sched, 0)
        sched.record(_result(sids, 0))
        with pytest.raises(ValueError, match="duplicate"):
            sched.record(_result(sids, 0))

    def test_result_never_dispatched_rejected(self):
        sched = _sched(2)
        with pytest.raises(ValueError, match="never dispatched"):
            sched.record(_result((0,), 0))
        # Nor may a reply regroup candidates into a slice never sent.
        _hand(sched, 0, workers=2)
        _hand(sched, 0, workers=2)
        with pytest.raises(ValueError, match="never dispatched"):
            sched.record(_result((0, 1), 0))

    def test_result_wrong_worker_rejected(self):
        sched = _sched(1)
        sids = _hand(sched, 0)
        with pytest.raises(ValueError, match="worker"):
            sched.record(_result(sids, 3))

    def test_unknown_sequence_rejected(self):
        sched = _sched(1)
        with pytest.raises(KeyError):
            sched.record(_result((99,), 0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            OnDemandScheduler([0, 0], lambda sids: b"")


class TestSlices:
    """Slice sizes, the floor and the frame budget, in a scripted order."""

    def test_guided_slice_sizes(self):
        """``max(SLICE_FLOOR, ceil(backlog / (2 × workers)))``: large
        slices first, never fewer than the floor while the backlog can
        give every worker that many, and the last slice takes the rest —
        no run of one-candidate slices at the tail."""
        assert SLICE_FLOOR == 8
        sched = _sched(40)
        handed = [_hand(sched, i % 2, workers=2) for i in range(5)]
        # 40 -> 10; 30 -> 8 (guided 8); 22 -> 8 (guided 6); 14 is short of
        # 2 × 8 but both workers hold a slice -> 8; the last 6.
        assert [len(s) for s in handed] == [10, 8, 8, 8, 6]
        assert [sid for s in handed for sid in s] == list(range(40))
        assert _hand(sched, 0, workers=2) is None
        # One worker halves the backlog; the size follows the live count.
        sched = _sched(20)
        assert [len(_hand(sched, 0)) for _ in range(3)] == [10, 8, 2]
        assert sched.slice_size(workers=3) == 1  # empty: never below 1

    def test_a_short_backlog_is_split_evenly_over_the_free_workers(self):
        """A backlog short of ``workers × SLICE_FLOOR`` goes out in even
        shares to the workers holding nothing, so none idles on a short
        batch (a service round of ~10 candidates)."""
        sched = _sched(10)
        assert [len(_hand(sched, w, workers=2)) for w in (0, 1)] == [5, 5]
        sched = _sched(11)
        assert [len(_hand(sched, w, workers=2)) for w in (0, 1)] == [6, 5]
        sched = _sched(4)
        assert [len(_hand(sched, w, workers=3)) for w in (0, 1, 2)] == [2, 1, 1]
        # Once every worker holds a slice, the floor applies again.
        sched = _sched(12)
        assert _hand(sched, 0, workers=2) == tuple(range(6))
        assert _hand(sched, 0, workers=2) == tuple(range(6, 12))

    def test_requeue_by_slice(self):
        """A death readmits every candidate of the worker's
        unacknowledged slices, ahead of the rest, and the next slice is
        sized over the new backlog."""
        sched = _sched(40)
        first = _hand(sched, 0, workers=2)  # 0..9
        other = _hand(sched, 1, workers=2)  # 10..17
        second = _hand(sched, 0, workers=2)  # 18..25
        assert (len(first), len(other), len(second)) == (10, 8, 8)
        sched.record(_result(first, 0))
        assert sched.requeue_lost(0) == list(second)
        assert [sched.retries(sid) for sid in (*first, *second)] == [0] * 10 + [1] * 8
        assert sched.backlog == 22
        # max(8, ceil(22 / 4)) = 8: exactly the readmitted slice.
        assert _hand(sched, 2, workers=2) == second
        # The answered slice and the survivor's are untouched.
        assert sched.record(_result(other, 1))
        assert sched.missing() == list(range(18, 40))

    def test_trimmed_to_the_frame_budget(self):
        """A slice whose frame exceeds the budget shrinks until it fits
        (below the floor: the pipe comes first); a candidate too large on
        its own waits for an idle worker."""
        frames = []
        sizes = [10] * 12 + [100] + [10] * 11
        sched = _sched(24, sizes=sizes, frames=frames)
        # Guided size 12 -> 120 bytes > 45: trimmed to 12 × 45 // 120 = 4.
        assert sched.next_for(0, workers=1, budget=45, idle=True) == (
            (0, 1, 2, 3),
            bytes(40),
        )
        assert frames == [tuple(range(12)), (0, 1, 2, 3)]
        frames.clear()
        # Each floor-sized slice from here holds candidate 12 -> 170-190
        # bytes: down to 2.
        for pair in ((4, 5), (6, 7), (8, 9), (10, 11)):
            assert _hand(sched, 0, budget=45, idle=False) == pair
        # Candidate 12 alone is 100 bytes: not for a worker with work
        # unanswered (its pipe could not take it while it replies) ...
        assert _hand(sched, 0, budget=45, idle=False) is None
        assert sched.backlog == 12
        # ... only for an idle one, which is reading its pipe.
        assert _hand(sched, 1, budget=45, idle=True) == (12,)
        assert _hand(sched, 0, budget=45, idle=False) == (13, 14, 15, 16)
        assert (12,) in frames


class TestRequeue:
    """Fault-tolerance surface: a dead worker's slices go back in the pool."""

    def test_requeue_lost_readmits_at_front(self):
        sched = _sched(3)
        lost = _hand(sched, 0, workers=3)
        assert sched.requeue_lost(0) == list(lost)
        assert sched.backlog == 3
        assert sched.missing() == [0, 1, 2]
        assert sched.retries(lost[0]) == 1
        # The recovered candidate is the critical path: handed out before
        # the untouched tail of the queue.
        assert _hand(sched, 1, workers=3) == lost

    def test_requeue_lost_only_dead_workers_items(self):
        sched = _sched(3)
        s0 = _hand(sched, 0, workers=3)
        s1 = _hand(sched, 1, workers=3)
        assert sched.requeue_lost(0) == list(s0)
        # Worker 1's slice is untouched.
        assert sched.backlog == 2
        assert sched.record(_result(s1, 1))

    def test_duplicate_after_requeue_dropped_not_raised(self):
        sched = _sched(1)
        sids = _hand(sched, 0)
        sched.requeue_lost(0)
        redispatched = _hand(sched, 1)
        assert sched.record(_result(redispatched, 1)) is True
        # The dead worker's reply arrives late: dropped, not an error.
        assert sched.record(_result(sids, 1)) is False
        assert sched.done

    def test_late_reply_from_the_lost_worker_dropped_not_raised(self):
        sched = _sched(2)
        sids = _hand(sched, 0, workers=2)
        sched.requeue_lost(0)
        # Worker 0 was declared dead, yet its answer turns up before the
        # slice is handed out again: dropped, and it stays pending.
        assert sched.record(_result(sids, 0)) is False
        assert sched.missing() == [0, 1]
        assert _hand(sched, 1, workers=2) == sids

    def test_requeue_unknown_worker_is_noop(self):
        sched = _sched(2)
        _hand(sched, 0, workers=2)
        assert sched.requeue_lost(99) == []
        assert sched.backlog == 1
