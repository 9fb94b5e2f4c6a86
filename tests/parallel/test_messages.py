"""Tests for the master/worker wire protocol."""

import numpy as np
import pytest

from repro.ga.fitness import ScoreSet
from repro.parallel.messages import EndSignal, WorkFailure, WorkItem, WorkResult

PROBLEM = ("T", ("A", "B"))


def test_work_item_roundtrip():
    seq = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
    item = WorkItem.from_encoded(7, seq, PROBLEM)
    assert item.sequence_id == 7
    assert item.problem == PROBLEM
    assert np.array_equal(item.decode(), seq)


def test_work_item_validation():
    with pytest.raises(ValueError):
        WorkItem(-1, b"x", PROBLEM)
    with pytest.raises(ValueError):
        WorkItem(0, b"", PROBLEM)
    # Every item names its problem: there is no default one to fall back on.
    with pytest.raises(TypeError):
        WorkItem(0, b"x")


def test_work_item_payload_compact():
    seq = np.arange(10, dtype=np.uint8)
    assert len(WorkItem.from_encoded(0, seq, PROBLEM).payload) == 10


def test_work_result_carries_scores():
    scores = ScoreSet(0.5, (0.1, 0.2))
    r = WorkResult(3, 1, scores)
    assert r.scores.max_non_target == 0.2


def test_end_signal_default_reason():
    assert EndSignal().reason == "complete"


def test_batch_epoch_roundtrip():
    seq = np.array([1, 2, 3], dtype=np.uint8)
    item = WorkItem.from_encoded(0, seq, PROBLEM, batch_epoch=7)
    assert item.batch_epoch == 7
    assert WorkResult(0, 1, ScoreSet(0.5, ()), batch_epoch=7).batch_epoch == 7
    # Messages from the pre-epoch protocol default to epoch 0.
    assert WorkItem.from_encoded(0, seq, PROBLEM).batch_epoch == 0
    assert WorkResult(0, 1, ScoreSet(0.5, ())).batch_epoch == 0


def test_batch_epoch_validation():
    with pytest.raises(ValueError, match="batch_epoch"):
        WorkItem(0, b"x", PROBLEM, batch_epoch=-1)


def test_work_failure_carries_traceback():
    failure = WorkFailure(3, 1, "RuntimeError: boom", "Traceback ...", batch_epoch=2)
    assert failure.sequence_id == 3
    assert failure.worker_id == 1
    assert "boom" in failure.error
    assert failure.batch_epoch == 2


def test_messages_picklable():
    import pickle

    item = WorkItem.from_encoded(
        1, np.array([1, 2], dtype=np.uint8), PROBLEM, batch_epoch=4
    )
    result = WorkResult(1, 0, ScoreSet(0.3, (0.1,)), batch_epoch=4)
    failure = WorkFailure(1, 0, "ValueError: x", "Traceback ...", batch_epoch=4)
    for msg in (item, result, failure, EndSignal()):
        assert pickle.loads(pickle.dumps(msg)) == msg


def test_similarity_structures_ride_the_messages(tiny_engine):
    import pickle

    seq = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.uint8)
    similarity = tiny_engine.database.sequence_similarity(seq)
    item = WorkItem.from_encoded(
        0, seq, PROBLEM, similarities=((seq.tobytes(), similarity),)
    )
    ((key, carried),) = pickle.loads(pickle.dumps(item)).similarities
    assert key == seq.tobytes()
    assert (carried.counts != similarity.counts).nnz == 0
    reply = WorkResult(0, 1, ScoreSet(0.5, ()), similarity=similarity, inbox_wait=0.25)
    loaded = pickle.loads(pickle.dumps(reply))
    assert (loaded.similarity.counts != similarity.counts).nnz == 0
    assert loaded.inbox_wait == 0.25
    # Items and replies carry nothing unless told to.
    assert WorkItem.from_encoded(0, seq, PROBLEM).similarities == ()
    bare = WorkResult(0, 1, ScoreSet(0.5, ()))
    assert bare.similarity is None and bare.inbox_wait == 0.0
