"""Tests for the worker main loop (in-process over a real
``multiprocessing.Pipe()``, no child processes)."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.ga.fitness import score_batch
from repro.parallel.messages import EndSignal, WorkItem, WorkResult
from repro.parallel.worker import WorkerContext, worker_loop


@pytest.fixture()
def context(tiny_engine):
    return WorkerContext(tiny_engine)


@pytest.fixture()
def problem(tiny_problem):
    target, non_targets = tiny_problem
    return target, tuple(non_targets)


def _item(sid, seq, problem, **kw):
    return WorkItem.from_encoded(sid, seq, problem, **kw)


def _scored(engine, seq, problem):
    """The full-sweep score set of one candidate."""
    return score_batch(engine, [seq], [problem])[0][0]


@pytest.fixture()
def pipe():
    """``(master end, worker end)`` of a worker's duplex pipe."""
    master, worker = multiprocessing.Pipe(duplex=True)
    yield master, worker
    master.close()
    worker.close()


def test_context_validates_names(tiny_engine):
    """The context no longer knows a problem, so it has no names to check:
    it validates that an engine can be had, and problems are validated in
    one place, ``make_problem`` (which ``WorkerPool.warm`` calls)."""
    from repro.parallel.mp_backend import WorkerPool

    with pytest.raises(ValueError, match="engine"):
        WorkerContext(None)
    assert not hasattr(WorkerContext(tiny_engine), "target")
    pool = WorkerPool(tiny_engine, num_workers=1)
    with pytest.raises(KeyError):
        pool.warm("NOPE", [])
    with pytest.raises(KeyError):
        pool.warm("YBL051C", ["NOPE"])


def test_warm_cache(tiny_engine, problem, rng, pipe):
    """A worker warms a problem's structures the first time an item names
    it — nothing is warmed before, nothing again after."""
    from repro.providers import make_engine

    fresh = make_engine(tiny_engine.database.graph, tiny_engine.config)
    master, worker = pipe
    for i in range(2):
        master.send(_item(i, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.send(EndSignal())
    assert fresh.database.cache_info()["entries"] == 0
    worker_loop(0, WorkerContext(fresh), worker)
    assert fresh.database.cache_info()["entries"] == len(problem[1]) + 1


def test_worker_loop_processes_until_end(context, problem, rng, pipe):
    master, worker = pipe
    for i in range(3):
        master.send(_item(i, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.send(EndSignal())
    processed = worker_loop(0, context, worker)
    assert processed == 3
    results = [master.recv() for _ in range(3)]
    assert {r.sequence_id for r in results} == {0, 1, 2}
    assert all(isinstance(r, WorkResult) for r in results)
    # The pipe is private: the END signal is consumed, nothing is echoed.
    assert not worker.poll() and not master.poll()


def test_worker_loop_rejects_garbage(context, pipe):
    master, worker = pipe
    master.send("garbage")
    with pytest.raises(TypeError):
        worker_loop(0, context, worker)


def test_worker_loop_immediate_end(context, pipe):
    master, worker = pipe
    master.send(EndSignal())
    assert worker_loop(1, context, worker) == 0


def test_worker_loop_ends_when_the_master_end_closes(context, problem, rng, pipe):
    """No EndSignal ever arrives from a killed master: end-of-file on the
    pipe ends the loop, which still returns its count — and so does a
    reply that nobody is left to receive."""
    master, worker = pipe
    master.send(_item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    replies = []

    def master_side():
        replies.append(master.recv())
        master.close()

    thread = threading.Thread(target=master_side)
    thread.start()
    try:
        assert worker_loop(0, context, worker) == 1
    finally:
        thread.join(timeout=5.0)
    assert not thread.is_alive() and replies[0].sequence_id == 0

    master, worker = multiprocessing.Pipe(duplex=True)
    master.send(_item(1, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.close()
    assert worker_loop(0, context, worker) == 0
    worker.close()


def test_worker_patches_from_what_the_item_carries(context, problem, rng, pipe):
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
    master, worker = pipe
    master.send(
        _item(
            0, child, problem, provenance=prov,
            similarities=((parent.tobytes(), parent_sim),),
        )
    )
    master.send(_item(1, child, problem, provenance=prov))
    master.send(EndSignal())
    assert worker_loop(0, context, worker) == 2
    patched, swept = master.recv(), master.recv()
    assert patched.delta.hit
    assert 0 < patched.delta.rows_rescored < patched.delta.rows_total
    assert not swept.delta.hit
    assert swept.delta.rows_rescored == swept.delta.rows_total
    full = database.sequence_similarity(child)
    for reply in (patched, swept):
        assert reply.scores == _scored(context.engine, child, problem)
        assert (reply.similarity.counts != full.counts).nnz == 0


def test_worker_does_not_echo_a_structure_the_item_carried(
    context, problem, rng, pipe
):
    seq = rng.integers(0, 20, size=25).astype(np.uint8)
    own = context.engine.database.sequence_similarity(seq)
    master, worker = pipe
    master.send(_item(0, seq, problem, similarities=((seq.tobytes(), own),)))
    master.send(EndSignal())
    worker_loop(0, context, worker)
    reply = master.recv()
    assert reply.similarity is None
    assert reply.scores == _scored(context.engine, seq, problem)


def test_worker_without_delta_ships_no_structure(tiny_engine, problem, rng, pipe):
    context = WorkerContext(tiny_engine, use_delta=False)
    master, worker = pipe
    master.send(_item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.send(EndSignal())
    worker_loop(0, context, worker)
    reply = master.recv()
    assert reply.similarity is None and reply.delta is None


def test_retire_signal_stops_the_worker_after_its_inbox(context, problem, rng, pipe):
    # The pipe is FIFO: the end signal stops the worker after the items
    # ahead of it and before anything behind it.
    master, worker = pipe
    master.send(_item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.send(EndSignal())
    master.send(_item(1, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    assert worker_loop(0, context, worker) == 1
    assert master.recv().sequence_id == 0 and not master.poll()
    assert worker.recv().sequence_id == 1  # nothing past the signal was touched


def test_worker_stamps_inbox_wait(context, problem, rng, pipe):
    master, worker = pipe
    item = _item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem)

    def feed():
        time.sleep(0.3)
        master.send(item)
        master.send(EndSignal())

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        worker_loop(0, context, worker)
    finally:
        feeder.join(timeout=5.0)
    assert not feeder.is_alive()
    assert master.recv().inbox_wait >= 0.1
