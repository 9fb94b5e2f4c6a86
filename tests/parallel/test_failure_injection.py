"""Failure injection for the parallel runtime.

A worker process that dies (or never starts doing work) must surface as a
clear diagnostic error at the master, not a hang — the behaviour a
cluster operator depends on.  The recovery paths themselves (respawn,
re-dispatch, epoch staleness) are exercised in
``test_fault_tolerance.py``.
"""

import numpy as np
import pytest

import repro.parallel.mp_backend as mp_backend
from repro.parallel.mp_backend import DeadWorkerError, MultiprocessScoreProvider


def _dead_worker_entry(worker_id, handle, config, faults, conn, master_ends):
    """A worker that exits immediately without taking any work."""
    return


def test_dead_workers_cause_error_not_hang(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    target, non_targets = tiny_problem
    monkeypatch.setattr(mp_backend, "_worker_entry", _dead_worker_entry)
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1,
        timeout=2.0, fail_fast=True,
    )
    try:
        with pytest.raises(DeadWorkerError, match="died"):
            provider.scores([rng.integers(0, 20, size=20).astype(np.uint8)])
    finally:
        provider.close()


def test_recovery_after_failed_batch(tiny_engine, tiny_problem, rng):
    """A fresh provider works after a previous provider failed — no shared
    global state is poisoned."""
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, timeout=120.0
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
        tiny_engine, target, non_targets, num_workers=1, timeout=120.0
    )
    seq = rng.integers(0, 20, size=20).astype(np.uint8)
    try:
        first = provider.scores([seq])[0]
    finally:
        provider.close()
    again = provider.scores([seq.copy()])[0]
    assert again.target_score == first.target_score
    assert not provider.pool._workers  # cache hit: nothing respawned
