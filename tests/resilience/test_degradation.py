"""Graceful degradation of the parallel runtime under injected faults.

The campaign-supervisor contract: losing the worker pool costs wall-clock
time, never the campaign and never score fidelity.  Degraded items are
scored serially in the master through the exact worker code path, so every
test here pins bit-exactness against the serial reference alongside the
accounting (``degraded_items``, breaker state, ``force_killed``).
"""

import time

import numpy as np
import pytest

from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider, WorkerPool
from repro.parallel.worker import FaultPlan
from repro.resilience import BreakerState, CircuitBreaker
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.faults


def _seqs(rng, n, size=25):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


def _engine(provider, seed=5, pop=8, length=16):
    return InSiPSEngine(
        provider,
        GAParams(),
        population_size=pop,
        candidate_length=length,
        seed=seed,
    )


def test_permanent_pool_loss_campaign_completes_bit_exact(
    tiny_engine, tiny_problem, monkeypatch
):
    """The acceptance scenario: a chaos plan that kills every worker
    permanently (respawns die too) must still complete the campaign, with
    scores bit-exact against the serial reference and
    ``degraded_items > 0``."""
    target, non_targets = tiny_problem
    generations = 2
    reference = _engine(
        SerialScoreProvider(tiny_engine, target, non_targets)
    ).run(generations)

    telemetry = MetricsRegistry()
    monkeypatch.setattr(WorkerPool, "MAX_RETRIES", 1)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        faults=FaultPlan(crash_on_item=0),  # every worker, forever
        telemetry=telemetry,
    ) as provider:
        result = _engine(provider).run(generations)
        assert result.completed
        assert result.best.sequence == reference.best.sequence
        assert result.history.to_payload() == reference.history.to_payload()
        assert provider.pool.degraded_items > 0
        assert provider.pool.degraded_batches > 0
        assert provider.pool.worker_deaths > 0
        assert provider.pool.breaker.state == BreakerState.OPEN
        assert (
            telemetry.counter("parallel.degraded_items").value
            == provider.pool.degraded_items
        )
        assert (
            telemetry.counter("parallel.degraded_batches").value
            == provider.pool.degraded_batches
        )


def test_breaker_open_probe_close_cycle(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    """One worker crashes once: the first batch degrades and opens the
    breaker; the next batch stays serial; the probe batch finds the
    respawned worker healthy and closes the breaker again."""
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    monkeypatch.setattr(WorkerPool, "MAX_RETRIES", 0)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(crash_on_item=0, only_worker=0),
    ) as provider:
        provider.pool.breaker = CircuitBreaker(probe_after=2)
        # Batch 1: worker 0 dies, the batch degrades, the breaker trips.
        batch1 = _seqs(rng, 2)
        assert _same_scores(provider.scores(batch1), serial.scores(batch1))
        assert provider.pool.breaker.state == BreakerState.OPEN
        assert provider.pool.degraded_batches == 1
        # Batch 2: breaker open, first denial -> serial without the pool.
        batch2 = _seqs(rng, 2)
        assert _same_scores(provider.scores(batch2), serial.scores(batch2))
        assert provider.pool.degraded_batches == 2
        assert provider.pool.breaker.state == BreakerState.OPEN
        # Batch 3: second denial grants the probe; the respawned worker
        # (fresh id, outside the fault plan) answers and closes the breaker.
        batch3 = _seqs(rng, 2)
        assert _same_scores(provider.scores(batch3), serial.scores(batch3))
        assert provider.pool.breaker.state == BreakerState.CLOSED
        assert provider.pool.breaker.probes == 1
        assert provider.pool.degraded_batches == 2  # the probe went to the pool
        # Batch 4: back to normal pool scoring.
        batch4 = _seqs(rng, 2)
        assert _same_scores(provider.scores(batch4), serial.scores(batch4))
        assert provider.pool.degraded_batches == 2


def _same_scores(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.target_score == pytest.approx(w.target_score)
        assert g.non_target_scores == pytest.approx(w.non_target_scores)
    return True


def test_stalled_pool_degrades_and_close_escalates(
    tiny_engine, tiny_problem, monkeypatch, rng
):
    """A hung worker (no reply, still alive) stalls the batch past the
    stall timeout: the items are degraded to serial, and close() escalates
    terminate()/kill() instead of waiting out the hang."""
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    telemetry = MetricsRegistry()
    monkeypatch.setattr(WorkerPool, "TIMEOUT_S", 0.5)
    monkeypatch.setattr(WorkerPool, "CLOSE_GRACE_S", 0.3)
    provider = MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        faults=FaultPlan(hang_on_item=0, hang_s=60.0),
        telemetry=telemetry,
    )
    try:
        seqs = _seqs(rng, 2)
        out = provider.scores(seqs)
        assert _same_scores(out, serial.scores(seqs))
        assert provider.pool.degraded_items == 2
        assert provider.pool.breaker.state == BreakerState.OPEN
        (event,) = [
            e for e in telemetry.events if e["event"] == "parallel.degraded"
        ]
        assert event["reason"] == (
            "collection stalled for 0.5s with 2 item(s) outstanding"
        )
    finally:
        started = time.monotonic()
        provider.close()
        elapsed = time.monotonic() - started
    assert elapsed < 10.0  # nowhere near the 60 s hang
    assert provider.pool.force_killed == 1
    assert telemetry.counter("parallel.force_killed").value == 1
