"""Tests for the worker main loop (in-process over a real
``multiprocessing.Pipe()``, no child processes)."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.ga.fitness import score_batch
from repro.parallel.messages import EndSignal, WorkResult, WorkSlice
from repro.parallel.worker import worker_loop


@pytest.fixture()
def problem(tiny_problem):
    target, non_targets = tiny_problem
    return target, tuple(non_targets)


def _item(sid, seq, problem):
    """A one-candidate slice."""
    return _slice([sid], [seq], problem)


def _slice(sids, seqs, problem):
    return WorkSlice(
        0,
        tuple(sids),
        tuple(np.asarray(s, dtype=np.uint8).tobytes() for s in seqs),
        (problem,) * len(sids),
    )


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
    """A worker is spawned with an engine and knows no problem, so it has
    no names to check: problems are validated in one place,
    ``make_problem`` (which ``WorkerPool.warm`` calls)."""
    from repro.parallel.mp_backend import WorkerPool

    pool = WorkerPool(tiny_engine, num_workers=1)
    with pytest.raises(KeyError):
        pool.warm("NOPE", [])
    with pytest.raises(KeyError):
        pool.warm("YBL051C", ["NOPE"])


def test_warm_cache(tiny_engine, problem, rng, pipe):
    """A worker warms a problem's structures the first time a slice names
    it — nothing is warmed before, nothing again after."""
    from repro.providers import make_engine

    fresh = make_engine(tiny_engine.database.graph, tiny_engine.config)
    master, worker = pipe
    for i in range(2):
        master.send(_item(i, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.send(EndSignal())
    assert fresh.database.cache_info()["entries"] == 0
    worker_loop(0, fresh, worker)
    assert fresh.database.cache_info()["entries"] == len(problem[1]) + 1


def test_worker_loop_processes_until_end(tiny_engine, problem, rng, pipe):
    master, worker = pipe
    seqs = [rng.integers(0, 20, size=20).astype(np.uint8) for _ in range(4)]
    master.send(_slice([0, 1, 2], seqs[:3], problem))
    master.send(_item(3, seqs[3], problem))
    master.send(EndSignal())
    processed = worker_loop(0, tiny_engine, worker)
    assert processed == 2  # slices, each answered once
    results = [master.recv() for _ in range(2)]
    assert [r.sequence_ids for r in results] == [(0, 1, 2), (3,)]
    assert all(isinstance(r, WorkResult) for r in results)
    scores = [s for r in results for s in r.scores]
    assert scores == [_scored(tiny_engine, seq, problem) for seq in seqs]
    # The pipe is private: the END signal is consumed, nothing is echoed.
    assert not worker.poll() and not master.poll()


def test_worker_loop_rejects_garbage(tiny_engine, pipe):
    master, worker = pipe
    master.send("garbage")
    with pytest.raises(TypeError):
        worker_loop(0, tiny_engine, worker)


def test_worker_loop_immediate_end(tiny_engine, pipe):
    master, worker = pipe
    master.send(EndSignal())
    assert worker_loop(1, tiny_engine, worker) == 0


def test_worker_loop_ends_when_the_master_end_closes(tiny_engine, problem, rng, pipe):
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
        assert worker_loop(0, tiny_engine, worker) == 1
    finally:
        thread.join(timeout=5.0)
    assert not thread.is_alive() and replies[0].sequence_ids == (0,)

    master, worker = multiprocessing.Pipe(duplex=True)
    master.send(_item(1, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.close()
    assert worker_loop(0, tiny_engine, worker) == 0
    worker.close()


def test_worker_does_not_echo_a_structure_the_item_carried(
    tiny_engine, problem, rng, pipe
):
    """A slice carries candidates and a reply carries their score sets and
    the worker's usage figures: no similarity structure crosses the pipe
    either way, whatever the worker built."""
    seq = rng.integers(0, 20, size=25).astype(np.uint8)
    master, worker = pipe
    master.send(_item(0, seq, problem))
    master.send(EndSignal())
    worker_loop(0, tiny_engine, worker)
    reply = master.recv()
    assert reply.scores == (_scored(tiny_engine, seq, problem),)
    assert set(vars(reply)) == {
        "sequence_ids", "worker_id", "scores", "elapsed", "batch_epoch",
        "inbox_wait", "cpu_s", "minor_faults",
    }


def test_retire_signal_stops_the_worker_after_its_inbox(tiny_engine, problem, rng, pipe):
    # The pipe is FIFO: the end signal stops the worker after the slices
    # ahead of it and before anything behind it.
    master, worker = pipe
    master.send(_item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    master.send(EndSignal())
    master.send(_item(1, rng.integers(0, 20, size=20).astype(np.uint8), problem))
    assert worker_loop(0, tiny_engine, worker) == 1
    assert master.recv().sequence_ids == (0,) and not master.poll()
    assert worker.recv().sequence_ids == (1,)  # nothing past the signal was touched


def test_worker_stamps_inbox_wait(tiny_engine, problem, rng, pipe):
    master, worker = pipe
    item = _item(0, rng.integers(0, 20, size=20).astype(np.uint8), problem)

    def feed():
        time.sleep(0.3)
        master.send(item)
        master.send(EndSignal())

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        worker_loop(0, tiny_engine, worker)
    finally:
        feeder.join(timeout=5.0)
    assert not feeder.is_alive()
    assert master.recv().inbox_wait >= 0.1
