"""Tests for the worker main loop (in-process, no child processes)."""

import queue

import numpy as np
import pytest

from repro.parallel.messages import EndSignal, RetireSignal, WorkItem, WorkResult
from repro.parallel.worker import WorkerContext, score_candidate, worker_loop


@pytest.fixture()
def context(tiny_engine):
    return WorkerContext(tiny_engine)


@pytest.fixture()
def problem(tiny_problem):
    target, non_targets = tiny_problem
    return target, tuple(non_targets)


def _item(sid, seq, problem, **kw):
    return WorkItem.from_encoded(sid, seq, problem, **kw)


def test_context_validates_names(tiny_engine):
    """The context no longer knows a problem, so it has no names to check:
    it validates that an engine can be had, and problems are validated in
    one place, ``WorkerPool.warm``."""
    from repro.parallel.mp_backend import WorkerPool

    with pytest.raises(ValueError, match="engine"):
        WorkerContext(None)
    assert not hasattr(WorkerContext(tiny_engine), "target")
    pool = WorkerPool(tiny_engine, num_workers=1)
    with pytest.raises(KeyError):
        pool.warm("NOPE", [])
    with pytest.raises(KeyError):
        pool.warm("YBL051C", ["NOPE"])


def test_score_candidate_matches_engine(tiny_engine, problem, rng):
    seq = rng.integers(0, 20, size=30).astype(np.uint8)
    scores, stats = score_candidate(tiny_engine, seq, problem)
    assert stats is None  # no cache given: the full sweep
    assert scores.target_score == pytest.approx(tiny_engine.score(seq, problem[0]))
    assert len(scores.non_target_scores) == len(problem[1])


def test_warm_cache(tiny_engine, problem, rng):
    """A worker warms a problem's structures the first time an item names
    it — nothing is warmed before, nothing again after."""
    from repro.providers import make_engine

    fresh = make_engine(tiny_engine.database.graph, tiny_engine.config)
    inbox = queue.Queue()
    for i in range(2):
        inbox.put(_item(i, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    inbox.put(EndSignal())
    assert fresh.database.cache_info()["entries"] == 0
    worker_loop(0, WorkerContext(fresh), inbox, queue.Queue())
    assert fresh.database.cache_info()["entries"] == len(problem[1]) + 1


def test_worker_loop_processes_until_end(context, problem, rng):
    inbox = queue.Queue()
    result_q = queue.Queue()
    for i in range(3):
        inbox.put(_item(i, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    inbox.put(EndSignal())
    processed = worker_loop(0, context, inbox, result_q)
    assert processed == 3
    results = [result_q.get_nowait() for _ in range(3)]
    assert {r.sequence_id for r in results} == {0, 1, 2}
    assert all(isinstance(r, WorkResult) for r in results)
    # The inbox is private: the END signal is consumed, not passed on.
    assert inbox.empty()


def test_worker_loop_rejects_garbage(context):
    inbox = queue.Queue()
    result_q = queue.Queue()
    inbox.put("garbage")
    with pytest.raises(TypeError):
        worker_loop(0, context, inbox, result_q)


def test_worker_loop_immediate_end(context):
    inbox = queue.Queue()
    result_q = queue.Queue()
    inbox.put(EndSignal())
    assert worker_loop(1, context, inbox, result_q) == 0


def test_worker_patches_from_what_the_item_carries(context, problem, rng):
    """Stateless delta scoring: the parent's structure arrives on the item,
    the child's leaves on the reply, and a second item naming the same
    parent *without* carrying it falls back — nothing was cached."""
    from repro.ppi.delta import mutation_provenance

    database = context.engine.database
    parent = rng.integers(0, 20, size=30).astype(np.uint8)
    child = parent.copy()
    child[10] = (child[10] + 3) % 20
    prov = mutation_provenance(parent, [10])
    parent_sim = database.sequence_similarity(parent)
    inbox = queue.Queue()
    result_q = queue.Queue()
    inbox.put(
        _item(
            0, child, problem, provenance=prov,
            similarities=((parent.tobytes(), parent_sim),),
        )
    )
    inbox.put(_item(1, child, problem, provenance=prov))
    inbox.put(EndSignal())
    assert worker_loop(0, context, inbox, result_q) == 2
    patched, swept = result_q.get_nowait(), result_q.get_nowait()
    assert patched.delta.hit
    assert 0 < patched.delta.rows_rescored < patched.delta.rows_total
    assert not swept.delta.hit
    assert swept.delta.rows_rescored == swept.delta.rows_total
    full = database.sequence_similarity(child)
    for reply in (patched, swept):
        assert reply.scores == score_candidate(context.engine, child, problem)[0]
        assert (reply.similarity.counts != full.counts).nnz == 0


def test_worker_does_not_echo_a_structure_the_item_carried(context, problem, rng):
    seq = rng.integers(0, 20, size=25).astype(np.uint8)
    own = context.engine.database.sequence_similarity(seq)
    inbox = queue.Queue()
    result_q = queue.Queue()
    inbox.put(_item(0, seq, problem, similarities=((seq.tobytes(), own),)))
    inbox.put(EndSignal())
    worker_loop(0, context, inbox, result_q)
    reply = result_q.get_nowait()
    assert reply.similarity is None
    assert reply.scores == score_candidate(context.engine, seq, problem)[0]


def test_worker_without_delta_ships_no_structure(tiny_engine, problem, rng):
    context = WorkerContext(tiny_engine, use_delta=False)
    inbox = queue.Queue()
    result_q = queue.Queue()
    inbox.put(_item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    inbox.put(EndSignal())
    worker_loop(0, context, inbox, result_q)
    reply = result_q.get_nowait()
    assert reply.similarity is None and reply.delta is None


def test_retire_signal_stops_the_worker_after_its_inbox(context, problem, rng):
    inbox = queue.Queue()
    result_q = queue.Queue()
    inbox.put(_item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    inbox.put(RetireSignal())
    inbox.put(_item(1, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    assert worker_loop(0, context, inbox, result_q) == 1
    assert result_q.get_nowait().sequence_id == 0
    assert inbox.qsize() == 1  # nothing past the signal was touched


def test_worker_stamps_inbox_wait(context, problem, rng):
    import threading
    import time

    inbox = queue.Queue()
    result_q = queue.Queue()
    item = _item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem)

    def feed():
        time.sleep(0.3)
        inbox.put(item)
        inbox.put(EndSignal())

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        worker_loop(0, context, inbox, result_q)
    finally:
        feeder.join(timeout=5.0)
    assert not feeder.is_alive()
    assert result_q.get_nowait().inbox_wait >= 0.1
