"""Failure injection for the parallel runtime.

A worker process that dies (or never starts doing work) must surface at
the master as a degraded batch with a diagnostic reason, not a hang —
the behaviour a cluster operator depends on.  The recovery paths themselves (respawn,
re-dispatch, epoch staleness) are exercised in
``test_fault_tolerance.py``.
"""

import numpy as np

import repro.parallel.mp_backend as mp_backend
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider
from repro.telemetry import MetricsRegistry


def _dead_worker_entry(worker_id, handle, config, faults, conn, master_ends):
    """A worker that exits immediately without taking any work."""
    return


def test_dead_workers_degrade_not_hang(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    target, non_targets = tiny_problem
    monkeypatch.setattr(mp_backend, "_worker_entry", _dead_worker_entry)
    telemetry = MetricsRegistry()
    seqs = [rng.integers(0, 20, size=20).astype(np.uint8)]
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, telemetry=telemetry
    )
    try:
        out = provider.scores(seqs)
    finally:
        provider.close()
    assert out == SerialScoreProvider(tiny_engine, target, non_targets).scores(
        seqs
    )
    (event,) = [e for e in telemetry.events if e["event"] == "parallel.degraded"]
    assert "died" in event["reason"]


def test_recovery_after_failed_batch(tiny_engine, tiny_problem, rng):
    """A fresh provider works after a previous provider failed — no shared
    global state is poisoned."""
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    )
    try:
        out = provider.scores([rng.integers(0, 20, size=20).astype(np.uint8)])
        assert len(out) == 1
    finally:
        provider.close()


def test_close_before_use_is_safe(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(tiny_engine, target, non_targets)
    provider.close()  # never started — must be a no-op


def test_cached_scores_survive_worker_shutdown(tiny_engine, tiny_problem, rng):
    """After close(), previously scored sequences still resolve from the
    master-side cache without respawning workers."""
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    )
    seq = rng.integers(0, 20, size=20).astype(np.uint8)
    try:
        first = provider.scores([seq])[0]
    finally:
        provider.close()
    again = provider.scores([seq.copy()])[0]
    assert again.target_score == first.target_score
    assert not provider.pool._workers  # cache hit: nothing respawned
