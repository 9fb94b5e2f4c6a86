"""Fault-injection tests for the parallel runtime's recovery paths.

Each test drives a deterministic failure through the
:class:`~repro.parallel.worker.FaultPlan` hook on the worker context (or
by replacing the worker entry point entirely) and asserts the master's
contract: a crashed worker is respawned and the batch still returns
correct, in-order scores; a worker-side exception surfaces with its
traceback; a stale result from a stalled epoch is never assigned to a
later batch; an exhausted retry budget degrades the batch with a reason
naming the dead workers and the lost items.
"""

import re
import time

import numpy as np
import pytest

import repro.parallel.mp_backend as mp_backend
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import (
    MultiprocessScoreProvider,
    WorkerFailureError,
    WorkerPool,
)
from repro.parallel.worker import FaultPlan
from repro.resilience import CircuitBreaker
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.faults


def _seqs(rng, n, size=25):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


def test_crashed_worker_respawned_batch_completes(
    tiny_engine, tiny_problem, rng
):
    """Kill worker 0 mid-batch: the master must detect the death, respawn
    a replacement, re-dispatch the lost item and still return correct,
    in-order scores for the whole batch."""
    target, non_targets = tiny_problem
    telemetry = MetricsRegistry()
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    seqs = _seqs(rng, 40)  # slices of 10, 8, 8...: worker 0 gets a second
    expected = serial.scores(seqs)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        faults=FaultPlan(crash_on_item=1, only_worker=0),
        telemetry=telemetry,
    ) as provider:
        out = provider.scores(seqs)
        assert len(out) == len(seqs)
        for got, want in zip(out, expected):
            assert got.target_score == pytest.approx(want.target_score)
            assert got.non_target_scores == pytest.approx(want.non_target_scores)
        assert provider.pool.worker_deaths >= 1
        assert provider.pool.respawns >= 1
        assert provider.pool.retries >= 1
        assert telemetry.counter("parallel.respawns").value >= 1
        assert telemetry.counter("parallel.worker_deaths").value >= 1
        # The replacement got a fresh id beyond the initial worker range.
        assert provider.pool._next_worker_id > provider.pool.num_workers


def test_work_failure_surfaces_worker_traceback(tiny_engine, tiny_problem, rng):
    """A scoring exception inside a worker must be reported with the
    worker-side traceback instead of killing the daemon silently."""
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(fail_on_item=0, only_worker=0),
    )
    try:
        with pytest.raises(WorkerFailureError, match="injected failure") as exc:
            provider.scores(_seqs(rng, 1))
        assert "worker traceback" in str(exc.value)
        assert "RuntimeError" in str(exc.value)
        assert provider.pool.failures == 1
    finally:
        provider.close()


def test_worker_survives_failed_item(tiny_engine, tiny_problem, rng):
    """The worker process itself outlives a scoring exception: after the
    failed batch, the *same* provider scores a later batch correctly
    without respawning anything."""
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(fail_on_item=0, only_worker=0),
    )
    try:
        with pytest.raises(WorkerFailureError):
            provider.scores(_seqs(rng, 1))
        out = provider.scores(_seqs(rng, 2))
        assert len(out) == 2
        assert provider.pool.respawns == 0
    finally:
        provider.close()


def test_stale_epoch_result_dropped_on_reuse(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    """A result orphaned by a stalled batch must never be assigned to a
    later batch whose candidate reuses the same sequence_id — the exact
    score-corruption bug the batch_epoch tag exists to prevent."""
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    seq_a, seq_b = _seqs(rng, 2)
    monkeypatch.setattr(WorkerPool, "TIMEOUT_S", 0.4)
    provider = MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(delay_on_item=0, delay=2.0, only_worker=0),
    )
    # Probe the pool on the very next batch after a degraded one.
    provider.pool.breaker = CircuitBreaker(probe_after=1)
    try:
        # Batch 1 (epoch 1): the worker sleeps past the stall timeout, so
        # the master degrades the batch while seq_a's result is in flight.
        out = provider.scores([seq_a])
        assert out == serial.scores([seq_a])
        assert provider.pool.degraded_items == 1
        # Batch 2 (epoch 2), the breaker's probe: sequence_id 0 now means
        # seq_b.  The stale epoch-1 reply for seq_a arrives first and
        # must be dropped.
        monkeypatch.setattr(WorkerPool, "TIMEOUT_S", 60.0)
        out = provider.scores([seq_b])
        want = serial.scores([seq_b])[0]
        assert out[0].target_score == pytest.approx(want.target_score)
        assert out[0].non_target_scores == pytest.approx(want.non_target_scores)
        assert provider.pool.stale_dropped >= 1
        assert provider.pool.degraded_items == 1
        assert provider.pool.breaker.state == "closed"
    finally:
        provider.close()


def test_failed_batch_keeps_its_backlog_in_the_master(
    tiny_engine, tiny_problem, rng
):
    """A batch aborted by a worker failure has handed out only the
    in-flight window of slices; the rest of it never left the master, so
    close() has nothing to drain and the worker exits on its own after
    the one prefetched slice."""
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        # Slice 0 fails fast (aborting the batch); the prefetched slice 1
        # keeps the worker busy while close() runs.
        faults=FaultPlan(fail_on_item=0, delay_on_item=1, delay=0.5),
    )
    try:
        with pytest.raises(WorkerFailureError):
            provider.scores(_seqs(rng, 32))
        stats = provider.pool.stats()
        assert stats["slices"] == mp_backend.IN_FLIGHT_WINDOW
        # Slices of ceil(32 / 2) = 16 and max(SLICE_FLOOR, ceil(16 / 2))
        # = 8: the last eight candidates never left the master.
        assert stats["dispatched"] == 24
    finally:
        start = time.monotonic()
        provider.close()
        closed_in = time.monotonic() - start
    assert closed_in < 5.0  # one delayed item, not six more sweeps or a kill
    assert provider.pool.force_killed == 0
    assert provider.pool.stale_dropped == 0


def _dead_worker_entry(worker_id, handle, config, faults, conn, master_ends):
    """A worker that exits immediately without taking any work."""
    return


def test_retry_budget_exhaustion_names_workers_and_items(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    """When respawned workers keep dying, the master must give up on the
    pool after the retry budget — not hang for the full stall timeout —
    and degrade the batch with a reason naming the dead workers, the
    lost sequence ids and the budget."""
    target, non_targets = tiny_problem
    monkeypatch.setattr(mp_backend, "_worker_entry", _dead_worker_entry)
    monkeypatch.setattr(WorkerPool, "MAX_RETRIES", 2)
    telemetry = MetricsRegistry()
    seqs = _seqs(rng, 1)
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, telemetry=telemetry
    ) as provider:
        out = provider.scores(seqs)
        assert out == SerialScoreProvider(tiny_engine, target, non_targets).scores(
            seqs
        )
        (event,) = [
            e for e in telemetry.events if e["event"] == "parallel.degraded"
        ]
        assert event["items"] == 1
        assert re.fullmatch(
            r"worker\(s\) \[\d+\] died and sequence\(s\) \[0\] exhausted "
            r"the retry budget of 2; 1 item\(s\) lost",
            event["reason"],
        )
        # Budget 2: item 0 is handed out three times, to three workers
        # that all die holding it.
        assert provider.pool.worker_deaths >= 3
        assert provider.pool.respawns >= 3
        assert provider.pool.retries == WorkerPool.MAX_RETRIES


def test_fault_stats_in_runtime_stats(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    ) as provider:
        provider.scores(_seqs(rng, 2))
        ft = provider.runtime_stats()["fault_tolerance"]
        assert ft == {
            "worker_deaths": 0,
            "respawns": 0,
            "retries": 0,
            "stale_dropped": 0,
            "failures": 0,
            "degraded_items": 0,
            "degraded_batches": 0,
            "force_killed": 0,
            "breaker": {
                "state": "closed",
                "failures": 0,
                "opens": 0,
                "probes": 0,
            },
            "epoch": 1,
        }


def test_fault_plan_only_targets_named_worker(tiny_engine, tiny_problem, rng):
    """A plan scoped to a worker id that never exists is inert — the
    batch completes with no deaths, failures or retries."""
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(crash_on_item=0, fail_on_item=1, only_worker=99),
    ) as provider:
        out = provider.scores(_seqs(rng, 3))
        assert len(out) == 3
        assert provider.pool.worker_deaths == 0
        assert provider.pool.failures == 0
