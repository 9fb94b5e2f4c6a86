"""Tests for the on-demand scheduler."""

import numpy as np
import pytest

from repro.ga.fitness import ScoreSet
from repro.parallel.messages import WorkItem, WorkResult
from repro.parallel.scheduler import OnDemandScheduler


PROBLEM = ("T", ("A",))


def _items(n):
    return [
        WorkItem.from_encoded(i, np.array([i % 20 + 1], dtype=np.uint8), PROBLEM)
        for i in range(n)
    ]


def _result(item, worker):
    return WorkResult(item.sequence_id, worker, ScoreSet(0.5, ()))


class TestOnDemand:
    def test_hands_out_in_order_to_whoever_asks(self):
        sched = OnDemandScheduler(_items(3))
        a = sched.next_for(5)
        b = sched.next_for(2)
        assert a.sequence_id == 0
        assert b.sequence_id == 1

    def test_exhausts(self):
        sched = OnDemandScheduler(_items(2))
        sched.next_for(0)
        sched.next_for(0)
        assert sched.next_for(0) is None

    def test_done_after_all_results(self):
        items = _items(2)
        sched = OnDemandScheduler(items)
        i0 = sched.next_for(0)
        i1 = sched.next_for(1)
        assert not sched.done
        sched.record(_result(i0, 0))
        sched.record(_result(i1, 1))
        assert sched.done
        assert (sched.in_flight(0), sched.in_flight(1)) == (0, 0)

    def test_in_flight_remaining_and_missing_track_the_batch(self):
        sched = OnDemandScheduler(_items(4))
        first = sched.next_for(7)
        sched.next_for(7)
        sched.next_for(3)
        assert (sched.in_flight(7), sched.in_flight(3), sched.in_flight(9)) == (2, 1, 0)
        assert sched.remaining == 4 and sched.missing() == [0, 1, 2, 3]
        sched.record(_result(first, 7))
        assert sched.in_flight(7) == 1
        assert sched.remaining == 3 and sched.missing() == [1, 2, 3]

    def test_results_in_order(self):
        items = _items(3)
        sched = OnDemandScheduler(items)
        handed = [(sched.next_for(w), w) for w in (2, 0, 1)]
        # Replies arrive in any order; what is still owed stays sorted.
        for (item, w), owed in zip(reversed(handed), ([0, 1], [0], [])):
            sched.record(_result(item, w))
            assert sched.missing() == owed
        assert sched.done

    def test_results_in_order_incomplete_raises(self):
        # An incomplete batch is never "done", and says what it is owed.
        sched = OnDemandScheduler(_items(2))
        item = sched.next_for(0)
        sched.record(_result(item, 0))
        assert not sched.done
        assert sched.missing() == [1] and sched.remaining == 1

    def test_duplicate_result_rejected(self):
        sched = OnDemandScheduler(_items(1))
        item = sched.next_for(0)
        sched.record(_result(item, 0))
        with pytest.raises(ValueError, match="duplicate"):
            sched.record(_result(item, 0))

    def test_result_never_dispatched_rejected(self):
        sched = OnDemandScheduler(_items(2))
        with pytest.raises(ValueError, match="never dispatched"):
            sched.record(_result(_items(2)[0], 0))

    def test_result_wrong_worker_rejected(self):
        sched = OnDemandScheduler(_items(1))
        item = sched.next_for(0)
        with pytest.raises(ValueError, match="worker"):
            sched.record(_result(item, 3))

    def test_unknown_sequence_rejected(self):
        sched = OnDemandScheduler(_items(1))
        with pytest.raises(KeyError):
            sched.record(WorkResult(99, 0, ScoreSet(0.5, ())))

    def test_duplicate_ids_rejected(self):
        items = _items(2)
        items[1] = WorkItem(0, b"\x01", PROBLEM)
        with pytest.raises(ValueError, match="duplicate"):
            OnDemandScheduler(items)


class TestRequeue:
    """Fault-tolerance surface: a dead worker's items go back in the pool."""

    def test_requeue_lost_readmits_at_front(self):
        items = _items(3)
        sched = OnDemandScheduler(items)
        lost_item = sched.next_for(0)
        assert sched.requeue_lost(0) == [lost_item.sequence_id]
        assert sched.in_flight(0) == 0
        assert sched.missing() == [0, 1, 2]
        assert sched.retries(lost_item.sequence_id) == 1
        # The recovered item is the critical path: handed out before the
        # untouched tail of the queue.
        assert sched.next_for(1).sequence_id == lost_item.sequence_id

    def test_requeue_lost_only_dead_workers_items(self):
        sched = OnDemandScheduler(_items(3))
        i0 = sched.next_for(0)
        i1 = sched.next_for(1)
        assert sched.requeue_lost(0) == [i0.sequence_id]
        # Worker 1's item is untouched.
        assert (sched.in_flight(0), sched.in_flight(1)) == (0, 1)
        sched.record(_result(i1, 1))

    def test_duplicate_after_requeue_dropped_not_raised(self):
        sched = OnDemandScheduler(_items(1))
        item = sched.next_for(0)
        sched.requeue_lost(0)
        redispatched = sched.next_for(1)
        assert sched.record(_result(redispatched, 1)) is True
        # The dead worker's reply arrives late: dropped, not an error.
        assert sched.record(_result(item, 1)) is False
        assert sched.done

    def test_late_reply_from_the_lost_worker_dropped_not_raised(self):
        sched = OnDemandScheduler(_items(2))
        item = sched.next_for(0)
        sched.requeue_lost(0)
        # Worker 0 was declared dead, yet its answer turns up before the
        # item is handed out again: dropped, and the item stays pending.
        assert sched.record(_result(item, 0)) is False
        assert sched.missing() == [0, 1]
        assert sched.next_for(1).sequence_id == item.sequence_id

    def test_requeue_unknown_worker_is_noop(self):
        sched = OnDemandScheduler(_items(2))
        sched.next_for(0)
        assert sched.requeue_lost(99) == []
        assert sched.in_flight(0) == 1
