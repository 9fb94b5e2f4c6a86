"""The shared-memory proteome under the real multiprocessing runtime.

Covers what `tests/ppi/test_shm.py` cannot: workers that attach from a
*different* process, and leak safety when a worker is killed mid-attach —
the master must still unlink the segment on `close()` regardless of what
its children managed to do — or when the segment is unlinked behind the
pool's back (the crash tests carry the `faults` marker like the rest of
the fault-injection suite).
"""

import glob
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerPool
from repro.parallel.worker import FaultPlan
from repro.telemetry import MetricsRegistry


def _seqs(rng, n, size=25):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


def _live_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-proteome-*")


def test_shm_provider_matches_serial(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    seqs = _seqs(rng, 6)
    expected = serial.scores(seqs)
    before = set(_live_segments())
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2
    ) as provider:
        out = provider.scores(seqs)
        stats = provider.pool.stats()["shm"]
        assert stats is not None and stats["owner"] is True
    for got, want in zip(out, expected):
        assert got.target_score == pytest.approx(want.target_score)
        assert got.non_target_scores == pytest.approx(want.non_target_scores)
    assert set(_live_segments()) == before  # unlinked on close


def test_shipped_context_is_lightweight(tiny_engine, tiny_problem, rng):
    """What a worker is spawned with — the segment handle and the scalar
    config — pickles far smaller than the engine it rebuilds."""
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    ) as provider:
        provider.scores(_seqs(rng, 2))
        shipped = pickle.dumps((provider.pool._shm_view.handle, tiny_engine.config))
    assert len(shipped) < len(pickle.dumps(tiny_engine)) / 4


def test_provider_reusable_after_close(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    )
    seqs = _seqs(rng, 2)
    first = provider.scores(seqs)
    provider.close()
    assert not _live_segments()
    again = provider.scores(_seqs(np.random.default_rng(99), 2))
    provider.close()
    assert len(first) == 2 and len(again) == 2
    assert not _live_segments()


@pytest.mark.faults
def test_no_segment_leak_after_worker_sigkill(tiny_engine, tiny_problem, rng):
    """SIGKILL a worker holding an attachment: the kernel drops its
    mapping, the master respawns and still unlinks on close — no
    `/dev/shm/repro-proteome-*` entry survives."""
    target, non_targets = tiny_problem
    telemetry = MetricsRegistry()
    before = set(_live_segments())
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        faults=FaultPlan(crash_on_item=1, only_worker=0),
        telemetry=telemetry,
    ) as provider:
        serial = SerialScoreProvider(tiny_engine, target, non_targets)
        seqs = _seqs(rng, 40)  # worker 0 gets a second slice
        expected = serial.scores(seqs)
        out = provider.scores(seqs)
        for got, want in zip(out, expected):
            assert got.target_score == pytest.approx(want.target_score)
        assert provider.pool.worker_deaths >= 1
    assert set(_live_segments()) == before


@pytest.mark.faults
def test_degraded_serial_fallback_keeps_segment_usable(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    """Permanent pool loss degrades to master-serial scoring; the shm
    segment must survive the degradation and still unlink on close."""
    target, non_targets = tiny_problem
    before = set(_live_segments())
    monkeypatch.setattr(WorkerPool, "MAX_RETRIES", 0)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(crash_on_item=0),
        telemetry=MetricsRegistry(),
    ) as provider:
        out = provider.scores(_seqs(rng, 4))
        assert len(out) == 4
    assert set(_live_segments()) == before


@pytest.mark.faults
def test_segment_unlinked_behind_the_pool_still_scores(
    tiny_engine, tiny_problem, rng
):
    """Unlink the pool's segment from outside, then SIGKILL its workers:
    the replacements cannot map it and die too, yet the next batch still
    comes back equal to serial within its timeout — through the
    degraded path once the retry budget runs out — and no segment is
    left behind."""
    target, non_targets = tiny_problem
    before = set(_live_segments())
    seqs = _seqs(rng, 6)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(seqs)
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2
    ) as provider:
        provider.scores(_seqs(rng, 2))
        token = provider.pool.stats()["shm"]["token"]
        os.unlink(f"/dev/shm/{token}")
        for proc in list(provider.pool._workers.values()):
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10.0)
        start = time.monotonic()
        assert provider.scores(seqs) == expected
        assert time.monotonic() - start < WorkerPool.TIMEOUT_S
        faults = provider.pool.stats()["fault_tolerance"]
        assert faults["worker_deaths"] >= 2
        assert faults["respawns"] + faults["degraded_items"] > 0
    assert set(_live_segments()) == before
