"""Tests for the master/worker wire protocol."""

import pickle

import numpy as np
import pytest

from repro.ga.fitness import ScoreSet
from repro.parallel.messages import EndSignal, WorkFailure, WorkResult, WorkSlice

PROBLEM = ("T", ("A", "B"))
OTHER = ("A", ("T",))


def _slice(*seqs, epoch=0, problems=None, similarities=()):
    return WorkSlice(
        epoch,
        tuple(range(len(seqs))),
        tuple(np.asarray(s, dtype=np.uint8).tobytes() for s in seqs),
        tuple(problems or [PROBLEM] * len(seqs)),
        (None,) * len(seqs),
        similarities,
    )


def test_work_item_roundtrip():
    """A slice's candidates decode back to what was encoded, each with
    its own problem."""
    first = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
    second = np.array([9, 2, 6], dtype=np.uint8)
    work = _slice(first, second, problems=[PROBLEM, OTHER])
    assert work.sequence_ids == (0, 1)
    assert work.problems == (PROBLEM, OTHER)
    decoded = work.arrays()
    assert np.array_equal(decoded[0], first) and np.array_equal(decoded[1], second)


def test_work_item_validation():
    with pytest.raises(ValueError, match=">= 0"):
        WorkSlice(0, (-1,), (b"x",), (PROBLEM,), (None,))
    with pytest.raises(ValueError, match="non-empty"):
        WorkSlice(0, (0,), (b"",), (PROBLEM,), (None,))
    with pytest.raises(ValueError, match="at least one"):
        WorkSlice(0, (), (), (), ())
    # Every candidate names its problem: the columns must line up.
    with pytest.raises(ValueError, match="lengths must match"):
        WorkSlice(0, (0, 1), (b"x", b"y"), (PROBLEM,), (None, None))


def test_work_item_payload_compact():
    seq = np.arange(10, dtype=np.uint8)
    assert len(_slice(seq).payloads[0]) == 10


def test_work_result_carries_scores():
    scores = (ScoreSet(0.5, (0.1, 0.2)), ScoreSet(0.25, (0.3, 0.0)))
    r = WorkResult((3, 4), 1, scores)
    assert [s.max_non_target for s in r.scores] == [0.2, 0.3]
    assert r.sequence_ids == (3, 4)


def test_end_signal_default_reason():
    assert EndSignal().reason == "complete"


def test_batch_epoch_roundtrip():
    seq = np.array([1, 2, 3], dtype=np.uint8)
    assert _slice(seq, epoch=7).batch_epoch == 7
    assert WorkResult((0,), 1, (ScoreSet(0.5, ()),), batch_epoch=7).batch_epoch == 7
    # A reply stamped with no epoch reads as epoch 0.
    assert WorkResult((0,), 1, (ScoreSet(0.5, ()),)).batch_epoch == 0


def test_batch_epoch_validation():
    with pytest.raises(ValueError, match="batch_epoch"):
        WorkSlice(-1, (0,), (b"x",), (PROBLEM,), (None,))


def test_work_failure_carries_traceback():
    failure = WorkFailure(
        (3, 5), 1, "RuntimeError: boom", "Traceback ...", batch_epoch=2
    )
    assert failure.sequence_ids == (3, 5)
    assert failure.worker_id == 1
    assert "boom" in failure.error
    assert failure.batch_epoch == 2


def test_messages_picklable():
    work = _slice(np.array([1, 2], dtype=np.uint8), epoch=4)
    result = WorkResult((1,), 0, (ScoreSet(0.3, (0.1,)),), batch_epoch=4)
    failure = WorkFailure((1,), 0, "ValueError: x", "Traceback ...", batch_epoch=4)
    for msg in (work, result, failure, EndSignal()):
        assert pickle.loads(pickle.dumps(msg)) == msg


def test_similarity_structures_ride_the_messages(tiny_engine):
    seq = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.uint8)
    similarity = tiny_engine.database.sequence_similarity(seq)
    work = _slice(seq, similarities=((seq.tobytes(), similarity),))
    ((key, carried),) = pickle.loads(pickle.dumps(work)).similarities
    assert key == seq.tobytes()
    assert (carried.counts != similarity.counts).nnz == 0
    reply = WorkResult(
        (0,),
        1,
        (ScoreSet(0.5, ()),),
        similarities=((seq.tobytes(), similarity),),
        inbox_wait=0.25,
    )
    loaded = pickle.loads(pickle.dumps(reply))
    ((key, built),) = loaded.similarities
    assert key == seq.tobytes() and (built.counts != similarity.counts).nnz == 0
    assert loaded.inbox_wait == 0.25
    # Slices and replies carry nothing unless told to.
    assert _slice(seq).similarities == ()
    bare = WorkResult((0,), 1, (ScoreSet(0.5, ()),))
    assert bare.similarities == () and bare.deltas == () and bare.inbox_wait == 0.0
